package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"chaseterm"
	"chaseterm/api"
	"chaseterm/internal/store"
)

// openTestStore opens a FileStore over the given MemFS — the same
// image can back several engines in sequence, simulating restarts.
func openTestStore(t *testing.T, fs *store.MemFS) *store.FileStore {
	t.Helper()
	s, err := store.Open("verdicts.db", store.Options{Fsync: store.FsyncAlways, FS: fs})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return s
}

func postDecide(t *testing.T, url, rules string) *api.AnalyzeResponse {
	t.Helper()
	body, _ := json.Marshal(api.AnalyzeRequest{Kind: api.KindDecide, Rules: rules})
	resp, err := http.Post(url+"/v2/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v2/analyze: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out api.AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &out
}

// TestStoreWarmRestart is the acceptance check of the persistence
// tier: a verdict decided by one engine is served as a cache hit by a
// second engine sharing only the store file — zero recomputation after
// a "restart".
func TestStoreWarmRestart(t *testing.T) {
	fs := store.NewMemFS()
	var calls atomic.Int64
	decide := func(ctx context.Context, rules *chaseterm.RuleSet, v chaseterm.Variant, opt chaseterm.DecideOptions) (*chaseterm.Verdict, error) {
		calls.Add(1)
		return libraryDecide(ctx, rules, v, opt)
	}

	// First process: compute and write through.
	st1 := openTestStore(t, fs)
	eng1 := New(Options{Workers: 2, Store: st1, DecideFunc: decide})
	srv1 := httptest.NewServer(NewHandler(eng1))
	first := postDecide(t, srv1.URL, example1)
	if first.Cached || first.Decision == nil {
		t.Fatalf("first decide: cached=%v decision=%v, want fresh compute", first.Cached, first.Decision)
	}
	snap1 := eng1.StatsSnapshot()
	if snap1.StoreMisses != 1 || snap1.StoreHits != 0 || snap1.StoreErrors != 0 {
		t.Fatalf("first process store counters = %+v", snap1)
	}
	srv1.Close()
	eng1.Close()
	if err := st1.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	// Second process: same file, empty memory cache.
	st2 := openTestStore(t, fs)
	defer st2.Close()
	eng2 := New(Options{Workers: 2, Store: st2, DecideFunc: decide})
	defer eng2.Close()
	srv2 := httptest.NewServer(NewHandler(eng2))
	defer srv2.Close()
	second := postDecide(t, srv2.URL, example1)
	if !second.Cached {
		t.Fatal("restarted engine did not serve the persisted verdict as a cache hit")
	}
	if second.Decision == nil || second.Decision.Terminates != first.Decision.Terminates {
		t.Fatalf("restarted decision %+v, want %+v", second.Decision, first.Decision)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d underlying decisions across the restart, want 1", got)
	}
	snap2 := eng2.StatsSnapshot()
	if snap2.StoreHits != 1 || snap2.StoreDegraded {
		t.Fatalf("second process store counters = %+v, want 1 hit, not degraded", snap2)
	}

	// A third request in the same process is a pure memory hit: the
	// store is not re-probed.
	third := postDecide(t, srv2.URL, example1)
	if !third.Cached {
		t.Fatal("memory re-hit not cached")
	}
	if snap := eng2.StatsSnapshot(); snap.StoreHits != 1 {
		t.Fatalf("StoreHits = %d after memory hit, want still 1", snap.StoreHits)
	}
}

// TestStorePersistsPortfolioProvenance: a portfolio decision's
// provenance (decidedBy, rungs) must survive the restart — the store
// persists the full wire decision, not just the verdict.
func TestStorePersistsPortfolioProvenance(t *testing.T) {
	fs := store.NewMemFS()
	st1 := openTestStore(t, fs)
	eng1 := New(Options{Workers: 2, Store: st1})
	srv1 := httptest.NewServer(NewHandler(eng1))
	body, _ := json.Marshal(api.AnalyzeRequest{Kind: api.KindDecide, Rules: example1, Portfolio: true})
	resp, err := http.Post(srv1.URL+"/v2/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var first api.AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if first.Decision == nil || first.Decision.DecidedBy == "" {
		t.Fatalf("portfolio decide returned %+v, want decidedBy provenance", first.Decision)
	}
	srv1.Close()
	eng1.Close()
	st1.Close()

	st2 := openTestStore(t, fs)
	defer st2.Close()
	eng2 := New(Options{Workers: 2, Store: st2})
	defer eng2.Close()
	srv2 := httptest.NewServer(NewHandler(eng2))
	defer srv2.Close()
	resp2, err := http.Post(srv2.URL+"/v2/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp2.Body.Close()
	var second api.AnalyzeResponse
	if err := json.NewDecoder(resp2.Body).Decode(&second); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !second.Cached {
		t.Fatal("portfolio verdict not store-warm after restart")
	}
	if second.Decision.DecidedBy != first.Decision.DecidedBy || len(second.Decision.Rungs) != len(first.Decision.Rungs) {
		t.Fatalf("provenance lost across restart: got %+v, want %+v", second.Decision, first.Decision)
	}
}

// TestStoreDegradationIsNonFatal: with the store's backend down, the
// engine keeps serving 200s memory-only, /healthz reports degraded,
// and /v1/stats flips storeDegraded — the store is a cache, never a
// dependency.
func TestStoreDegradationIsNonFatal(t *testing.T) {
	broken := store.NewResilient(func() (store.VerdictStore, error) {
		return nil, errors.New("disk is gone")
	}, store.WithBackoff(time.Hour, time.Hour))
	defer broken.Close()
	eng := New(Options{Workers: 2, Store: broken})
	defer eng.Close()
	srv := httptest.NewServer(NewHandler(eng))
	defer srv.Close()

	out := postDecide(t, srv.URL, example1)
	if out.Decision == nil {
		t.Fatal("no decision while store degraded")
	}
	snap := eng.StatsSnapshot()
	if !snap.StoreDegraded {
		t.Fatal("storeDegraded not reported in stats")
	}
	if snap.StoreErrors != 0 {
		// The degraded short-circuit is not an error; the open failure
		// was logged by the wrapper, not billed per-request.
		t.Fatalf("StoreErrors = %d for degraded short-circuits, want 0", snap.StoreErrors)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200 while degraded", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if h.Status != "degraded" || h.Store == nil || !h.Store.Degraded || h.Store.LastError == "" {
		t.Fatalf("healthz = %+v, want degraded with store detail", h)
	}
}

// TestHealthzWithoutStore: the no-store configuration keeps the old
// one-field body shape ("status": "ok", no store block).
func TestHealthzWithoutStore(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()
	srv := httptest.NewServer(NewHandler(eng))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if string(raw["status"]) != `"ok"` {
		t.Fatalf("status = %s, want ok", raw["status"])
	}
	if _, present := raw["store"]; present {
		t.Fatal("store block present without a configured store")
	}
}

// TestStoreErrorFallsThroughToCompute: a store whose Get fails must
// cost one counted error and a recomputation — never a failed request.
func TestStoreErrorFallsThroughToCompute(t *testing.T) {
	var calls atomic.Int64
	eng := New(Options{
		Workers: 2,
		Store:   failingStore{},
		DecideFunc: func(ctx context.Context, rules *chaseterm.RuleSet, v chaseterm.Variant, opt chaseterm.DecideOptions) (*chaseterm.Verdict, error) {
			calls.Add(1)
			return libraryDecide(ctx, rules, v, opt)
		},
	})
	defer eng.Close()
	srv := httptest.NewServer(NewHandler(eng))
	defer srv.Close()

	out := postDecide(t, srv.URL, example1)
	if out.Cached || out.Decision == nil {
		t.Fatalf("decide with broken store: cached=%v decision=%v", out.Cached, out.Decision)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d decisions, want 1", calls.Load())
	}
	snap := eng.StatsSnapshot()
	// One Get error and one Put error: both counted, neither fatal.
	if snap.StoreErrors != 2 {
		t.Fatalf("StoreErrors = %d, want 2 (failed read + failed write-through)", snap.StoreErrors)
	}
}

// failingStore errors on every operation — a raw backend without the
// Resilient wrapper, exercising the engine's own error tolerance.
type failingStore struct{}

func (failingStore) Get(string) ([]byte, bool, error) { return nil, false, errors.New("broken get") }
func (failingStore) Put(string, []byte) error         { return errors.New("broken put") }
func (failingStore) Close() error                     { return nil }
