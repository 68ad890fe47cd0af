package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chaseterm"
	"chaseterm/api"
)

const example1 = `person(X) -> hasFather(X,Y), person(Y).`

// libraryDecide is the library's all-instance decision, for DecideFunc
// stubs that wrap it.
func libraryDecide(ctx context.Context, rules *chaseterm.RuleSet, v chaseterm.Variant, opt chaseterm.DecideOptions) (*chaseterm.Verdict, error) {
	rep, err := chaseterm.Analyzer{}.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules,
		chaseterm.WithVariant(v), chaseterm.WithDecideBudgets(opt)))
	if err != nil {
		return nil, err
	}
	return rep.Verdict, nil
}

// TestDecideCollapsesConcurrentIdenticalRequests is the acceptance
// check of the subsystem: 8 concurrent identical decide requests to
// /v2/analyze must cost exactly one underlying decision, and
// /v1/stats must report the corresponding hit/miss split (7 hits, 1
// miss).
func TestDecideCollapsesConcurrentIdenticalRequests(t *testing.T) {
	const clients = 8
	var calls atomic.Int64
	var eng *Engine
	eng = New(Options{
		Workers:    4,
		JobTimeout: 30 * time.Second,
		DecideFunc: func(ctx context.Context, rules *chaseterm.RuleSet, v chaseterm.Variant, opt chaseterm.DecideOptions) (*chaseterm.Verdict, error) {
			calls.Add(1)
			// Hold the decision open until every client is inside the
			// engine, so all of them overlap this single computation.
			deadline := time.Now().Add(10 * time.Second)
			for eng.Stats().InFlight() < clients && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			return libraryDecide(ctx, rules, v, opt)
		},
	})
	defer eng.Close()
	srv := httptest.NewServer(NewHandler(eng))
	defer srv.Close()

	body, _ := json.Marshal(api.AnalyzeRequest{Kind: api.KindDecide, Rules: example1, Variant: "so"})
	var wg sync.WaitGroup
	var cachedCount atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v2/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(resp.Body)
				t.Errorf("status %d: %s", resp.StatusCode, msg)
				return
			}
			var out api.AnalyzeResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Error(err)
				return
			}
			if out.Decision == nil || out.Decision.Terminates != "non-terminating" {
				t.Errorf("decision %+v, want non-terminating", out.Decision)
			}
			if out.Cached {
				cachedCount.Add(1)
			}
		}()
	}
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Errorf("the decider ran %d times for %d identical requests, want 1", n, clients)
	}
	if n := cachedCount.Load(); n != clients-1 {
		t.Errorf("%d responses marked cached, want %d", n, clients-1)
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.CacheMisses != 1 || snap.CacheHits != clients-1 {
		t.Errorf("stats report %d hits / %d misses, want %d / 1",
			snap.CacheHits, snap.CacheMisses, clients-1)
	}
	if snap.JobsServed < clients {
		t.Errorf("stats report %d jobs served, want >= %d", snap.JobsServed, clients)
	}
}

// TestBatchPreservesOrder fans distinguishable jobs across the pool and
// requires responses in input order.
func TestBatchPreservesOrder(t *testing.T) {
	eng := New(Options{Workers: 4})
	defer eng.Close()
	const n = 12
	reqs := make([]api.AnalyzeRequest, n)
	for i := range reqs {
		// Each job's rule set has a distinct predicate name, so its
		// fingerprint identifies which input produced it.
		reqs[i] = api.AnalyzeRequest{Kind: api.KindClassify, Rules: fmt.Sprintf("p%d(X) -> q%d(X,Y).", i, i)}
	}
	resps, err := eng.AnalyzeBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != n {
		t.Fatalf("got %d responses, want %d", len(resps), n)
	}
	for i, r := range resps {
		want := chaseterm.MustParseRules(reqs[i].Rules).Fingerprint()
		if r.Error != nil {
			t.Errorf("job %d failed: %v", i, r.Error)
			continue
		}
		if r.Fingerprint != want {
			t.Errorf("response %d carries the wrong job's result", i)
		}
	}
}

func TestBatchReportsPerJobErrors(t *testing.T) {
	eng := New(Options{Workers: 2})
	defer eng.Close()
	resps, err := eng.AnalyzeBatch(context.Background(), []api.AnalyzeRequest{
		{Kind: api.KindClassify, Rules: `p(X) -> q(X).`},
		{Kind: api.KindClassify, Rules: `this is not a rule`},
		{Kind: "nonsense", Rules: `p(X) -> q(X).`},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Error != nil {
		t.Errorf("healthy job failed: %v", resps[0].Error)
	}
	if resps[1].Error == nil || resps[2].Error == nil {
		t.Errorf("broken jobs did not report errors: %+v", resps[1:])
	}
}

func TestBatchLimits(t *testing.T) {
	eng := New(Options{Workers: 1, MaxBatch: 2})
	defer eng.Close()
	if _, err := eng.AnalyzeBatch(context.Background(), nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("empty batch: got %v, want ErrBadRequest", err)
	}
	over := []api.AnalyzeRequest{{Kind: api.KindClassify}, {Kind: api.KindClassify}, {Kind: api.KindClassify}}
	if _, err := eng.AnalyzeBatch(context.Background(), over); !errors.Is(err, ErrBadRequest) {
		t.Errorf("oversized batch: got %v, want ErrBadRequest", err)
	}
}

// TestJobTimeout requires a slow decision to be cut off at the per-job
// timeout with the caller seeing the deadline error promptly.
func TestJobTimeout(t *testing.T) {
	release := make(chan struct{})
	eng := New(Options{
		Workers:    1,
		JobTimeout: 30 * time.Millisecond,
		DecideFunc: func(_ context.Context, _ *chaseterm.RuleSet, _ chaseterm.Variant, _ chaseterm.DecideOptions) (*chaseterm.Verdict, error) {
			<-release
			return nil, errors.New("unreachable")
		},
	})
	defer eng.Close()
	// Release the stuck decision before Close: the worker holds its
	// slot until the abandoned computation winds down (LIFO defers).
	defer close(release)
	start := time.Now()
	_, err := eng.Analyze(context.Background(), api.AnalyzeRequest{Kind: api.KindDecide, Rules: example1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v to surface", d)
	}
	// The timed-out attempt must not have poisoned the cache.
	if eng.StatsSnapshot().CacheEntries != 0 {
		t.Error("failed decision was cached")
	}
}

// TestFlightSurvivesLeaderCancellation: a deduplicated decision serves
// every waiter, so the first requester hanging up must not fail the
// rest.
func TestFlightSurvivesLeaderCancellation(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	eng := New(Options{
		Workers: 2,
		DecideFunc: func(ctx context.Context, rules *chaseterm.RuleSet, v chaseterm.Variant, opt chaseterm.DecideOptions) (*chaseterm.Verdict, error) {
			close(started)
			<-release
			return libraryDecide(ctx, rules, v, opt)
		},
	})
	defer eng.Close()

	req := api.AnalyzeRequest{Kind: api.KindDecide, Rules: example1}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	go eng.Analyze(leaderCtx, req) //nolint:errcheck // the leader's fate is not under test
	<-started

	waiterErr := make(chan error, 1)
	var waiterResp *api.AnalyzeResponse
	go func() {
		resp, err := eng.Analyze(context.Background(), req)
		waiterResp = resp
		waiterErr <- err
	}()
	// Let the waiter join the in-progress flight, then hang up the
	// leader and let the decision finish.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()
	time.Sleep(20 * time.Millisecond)
	close(release)

	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("waiter failed after leader cancellation: %v", err)
		}
		if waiterResp.Decision == nil || waiterResp.Decision.Terminates != "non-terminating" {
			t.Fatalf("waiter got %+v", waiterResp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never completed")
	}
}

// TestClassifyEmitsZeroValues: a nullary-predicate schema really has
// MaxArity 0; the JSON must carry the 0 rather than omit the field.
func TestClassifyEmitsZeroValues(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()
	resp, err := eng.Analyze(context.Background(), api.AnalyzeRequest{Kind: api.KindClassify, Rules: `p -> q.`})
	if err != nil {
		t.Fatal(err)
	}
	if resp.MaxArity == nil || *resp.MaxArity != 0 {
		t.Fatalf("MaxArity = %v, want explicit 0", resp.MaxArity)
	}
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"maxArity":0`)) {
		t.Errorf("serialized response drops the zero arity: %s", data)
	}
}

// TestExplicitDefaultBudgetHitsCache: spelling out the library-default
// budget must land on the same cache entry as omitting it.
func TestExplicitDefaultBudgetHitsCache(t *testing.T) {
	var calls atomic.Int64
	eng := New(Options{
		Workers: 2,
		DecideFunc: func(ctx context.Context, rules *chaseterm.RuleSet, v chaseterm.Variant, opt chaseterm.DecideOptions) (*chaseterm.Verdict, error) {
			calls.Add(1)
			return libraryDecide(ctx, rules, v, opt)
		},
	})
	defer eng.Close()
	ctx := context.Background()
	if _, err := eng.Analyze(ctx, api.AnalyzeRequest{Kind: api.KindDecide, Rules: example1}); err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Analyze(ctx, api.AnalyzeRequest{Kind: api.KindDecide, Rules: example1, MaxShapes: chaseterm.DefaultMaxShapes})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 || !resp.Cached {
		t.Errorf("explicit default budget missed the cache (calls=%d, cached=%v)", calls.Load(), resp.Cached)
	}
}

// TestBudgetErrorsAreUnprocessable: an analysis that gives up on its
// search-space budget is the instance's problem, not a server fault.
func TestBudgetErrorsAreUnprocessable(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()
	_, err := eng.Analyze(context.Background(), api.AnalyzeRequest{
		Kind: api.KindDecide,
		// A guarded set whose forest needs several node types; a cap of
		// one forces the decider to give up on its budget.
		Rules: `gate(X,Y), live(X) -> out(Y,Z), live(Z).
		        out(Y,Z) -> gate(Y,Z).`,
		MaxNodeTypes: 1,
	})
	if !errors.Is(err, ErrUnprocessable) {
		t.Fatalf("got %v, want ErrUnprocessable", err)
	}
}

func TestDoValidatesRequests(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()
	ctx := context.Background()
	cases := []api.AnalyzeRequest{
		{Kind: api.KindDecide, Rules: `syntax error`},
		{Kind: api.KindDecide, Rules: example1, Variant: "bogus"},
		{Kind: api.KindChase, Rules: example1, Database: `not facts ->`},
		{Kind: "mystery", Rules: example1},
		// Budgets outside [0, maxRequestBudget] are rejected up front:
		// a worker stays occupied until its computation winds down, so
		// an absurd budget would let one request pin it for hours.
		{Kind: api.KindChase, Rules: example1, MaxFacts: maxRequestBudget + 1},
		{Kind: api.KindChase, Rules: example1, MaxTriggers: -5},
		{Kind: api.KindDecide, Rules: example1, MaxShapes: maxRequestBudget + 1},
	}
	for _, req := range cases {
		if _, err := eng.Analyze(ctx, req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%+v: got %v, want ErrBadRequest", req, err)
		}
	}
}

func TestDecideDistinctOptionsNotConflated(t *testing.T) {
	var calls atomic.Int64
	eng := New(Options{
		Workers: 2,
		DecideFunc: func(ctx context.Context, rules *chaseterm.RuleSet, v chaseterm.Variant, opt chaseterm.DecideOptions) (*chaseterm.Verdict, error) {
			calls.Add(1)
			return libraryDecide(ctx, rules, v, opt)
		},
	})
	defer eng.Close()
	ctx := context.Background()
	for _, req := range []api.AnalyzeRequest{
		{Kind: api.KindDecide, Rules: example1, Variant: "so"},
		{Kind: api.KindDecide, Rules: example1, Variant: "o"},
		{Kind: api.KindDecide, Rules: example1, Variant: "so", MaxShapes: 500},
	} {
		if _, err := eng.Analyze(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("distinct (variant, options) keys ran %d decisions, want 3", n)
	}
	// Alpha-renamed, reordered rules hit the same key.
	renamed := `person(P) -> hasFather(P,Dad), person(Dad).`
	if _, err := eng.Analyze(ctx, api.AnalyzeRequest{Kind: api.KindDecide, Rules: renamed, Variant: "so"}); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("alpha-equivalent rule set missed the cache (%d calls)", n)
	}
}
