package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"chaseterm"
	"chaseterm/api"
	"chaseterm/internal/store"
)

// waRules is weakly acyclic under the semi-oblivious variant, so a
// decide must stop at the weak-acyclicity rung and never reach the
// exact tier.
const waRules = `professor(X) -> teaches(X,C). teaches(X,C) -> course(C).`

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func TestAnalyzePortfolioDecide(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 2})
	resp, data := postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{
		Kind:      api.KindDecide,
		Rules:     waRules,
		Variant:   "so",
		Portfolio: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out api.AnalyzeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Decision == nil || out.Decision.Terminates != "terminating" {
		t.Fatalf("decision block wrong: %+v", out.Decision)
	}
	if out.Decision.DecidedBy != "weak-acyclicity" {
		t.Errorf("decidedBy = %q, want weak-acyclicity", out.Decision.DecidedBy)
	}
	if len(out.Decision.Rungs) == 0 {
		t.Error("portfolio decision carries no rung trace")
	}
	for _, r := range out.Decision.Rungs {
		if r.Name == "guarded-exact" || r.Name == "linear-exact" {
			t.Errorf("weakly-acyclic input reached exact rung %q", r.Name)
		}
	}

	// The rung counters see the one flight that actually ran.
	var snap Snapshot
	getJSON(t, srv.URL+"/v1/stats", &snap)
	if snap.PortfolioDecides != 1 {
		t.Errorf("portfolioDecides = %d, want 1", snap.PortfolioDecides)
	}
	if snap.PortfolioRungs["weak-acyclicity"] != 1 {
		t.Errorf("rung counter weak-acyclicity = %d, want 1", snap.PortfolioRungs["weak-acyclicity"])
	}
	if snap.PortfolioRungs["guarded-exact"] != 0 {
		t.Errorf("rung counter guarded-exact = %d, want 0", snap.PortfolioRungs["guarded-exact"])
	}

	// A repeat request is a cache hit: the provenance is replayed from
	// the cached value, and the rung counters do not move again.
	_, data = postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{
		Kind: api.KindDecide, Rules: waRules, Variant: "so", Portfolio: true,
	})
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("repeat portfolio decide not served from cache")
	}
	if out.Decision == nil || out.Decision.DecidedBy != "weak-acyclicity" {
		t.Errorf("cached portfolio decision lost its provenance: %+v", out.Decision)
	}
	getJSON(t, srv.URL+"/v1/stats", &snap)
	if snap.PortfolioDecides != 1 || snap.PortfolioRungs["weak-acyclicity"] != 1 {
		t.Errorf("cache hit moved rung counters: decides=%d weak=%d",
			snap.PortfolioDecides, snap.PortfolioRungs["weak-acyclicity"])
	}

	// And the Prometheus view agrees with the JSON one.
	httpResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if !strings.Contains(string(body), `chased_portfolio_rung_total{rung="weak-acyclicity"} 1`) {
		t.Error("/metrics missing the weak-acyclicity rung series at 1")
	}
}

// TestPortfolioSharesCacheWithPlainDecide: every decide climbs the
// ladder, so a plain decide and a portfolio decide of the same rules
// are one cache and store entry — one underlying decision — and differ
// only in whether the response lists the rungs. The provenance survives
// a restart on the same store, and a record under the key format of
// older binaries, which kept no provenance, is never served.
func TestPortfolioSharesCacheWithPlainDecide(t *testing.T) {
	fs := store.NewMemFS()
	var calls atomic.Int64
	decide := func(ctx context.Context, rules *chaseterm.RuleSet, v chaseterm.Variant, opt chaseterm.DecideOptions) (*chaseterm.Verdict, error) {
		calls.Add(1)
		return libraryDecide(ctx, rules, v, opt)
	}
	analyze := func(url string, portfolio bool) api.AnalyzeResponse {
		t.Helper()
		resp, data := postJSON(t, url+"/v2/analyze", api.AnalyzeRequest{
			Kind: api.KindDecide, Rules: waRules, Variant: "so", Portfolio: portfolio,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var out api.AnalyzeResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Decision == nil || out.Decision.Terminates != "terminating" || out.Decision.DecidedBy != "weak-acyclicity" {
			t.Fatalf("decision %+v, want terminating decided by weak-acyclicity", out.Decision)
		}
		return out
	}

	st1 := openTestStore(t, fs)
	eng1 := New(Options{Workers: 2, Store: st1, DecideFunc: decide})
	srv1 := httptest.NewServer(NewHandler(eng1))
	plain := analyze(srv1.URL, false)
	if plain.Cached || len(plain.Decision.Rungs) != 0 {
		t.Errorf("plain decide: cached=%v rungs=%v, want a fresh decision without rungs", plain.Cached, plain.Decision.Rungs)
	}
	traced := analyze(srv1.URL, true)
	if !traced.Cached || len(traced.Decision.Rungs) == 0 {
		t.Errorf("portfolio decide: cached=%v rungs=%v, want the cached decision with its rungs", traced.Cached, traced.Decision.Rungs)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("%d decisions for one rule set in two modes, want 1", n)
	}
	srv1.Close()
	eng1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same store: the persisted decision keeps its rungs.
	st2 := openTestStore(t, fs)
	eng2 := New(Options{Workers: 2, Store: st2, DecideFunc: decide})
	srv2 := httptest.NewServer(NewHandler(eng2))
	warm := analyze(srv2.URL, true)
	if !warm.Cached || len(warm.Decision.Rungs) != len(traced.Decision.Rungs) {
		t.Errorf("after restart: cached=%v rungs=%v, want %d rungs from the store", warm.Cached, warm.Decision.Rungs, len(traced.Decision.Rungs))
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("%d decisions across the restart, want 1", n)
	}
	srv2.Close()
	eng2.Close()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// A log holding only a record under the older key format: a store
	// miss, so the engine decides afresh. The stale record's answer is
	// deliberately wrong, so serving it would show.
	old := store.NewMemFS()
	st3 := openTestStore(t, old)
	defer st3.Close()
	fp := chaseterm.MustParseRules(waRules).Fingerprint()
	stale, _ := json.Marshal(api.Decision{Terminates: "non-terminating", Class: "simple-linear", Method: "weak-acyclicity(SL)"})
	if err := st3.Put("decide|"+fp+"|semi-oblivious|0|0", stale); err != nil {
		t.Fatal(err)
	}
	eng3 := New(Options{Workers: 2, Store: st3, DecideFunc: decide})
	defer eng3.Close()
	srv3 := httptest.NewServer(NewHandler(eng3))
	defer srv3.Close()
	if fresh := analyze(srv3.URL, false); fresh.Cached {
		t.Error("a record under the older key format was served")
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("%d decisions, want 2: the older record must not replace a decision", n)
	}
	if snap := eng3.StatsSnapshot(); snap.StoreHits != 0 || snap.StoreMisses != 1 {
		t.Errorf("store counters hits=%d misses=%d, want 0 and 1", snap.StoreHits, snap.StoreMisses)
	}
}

func TestCapabilitiesEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	var caps api.Capabilities
	getJSON(t, srv.URL+"/v2/capabilities", &caps)
	if caps.Version != api.Version || !caps.Portfolio {
		t.Errorf("capabilities = %+v", caps)
	}
	want := chaseterm.PortfolioRungNames()
	if len(caps.PortfolioRungs) != len(want) {
		t.Fatalf("rungs = %v, want %v", caps.PortfolioRungs, want)
	}
	for i, name := range want {
		if caps.PortfolioRungs[i] != name {
			t.Errorf("rung[%d] = %q, want %q", i, caps.PortfolioRungs[i], name)
		}
	}
}
