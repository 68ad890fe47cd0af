package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chaseterm"
	"chaseterm/api"
)

func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	eng := New(opts)
	srv := httptest.NewServer(NewHandler(eng))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" {
		t.Fatalf("body %v", out)
	}
}

func TestClassifyEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 2})
	resp, data := postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{
		Kind: api.KindClassify,
		Rules: `gate(X,Y), live(X) -> out(Y,Z), live(Z).
		        out(Y,Z) -> gate(Y,Z).`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out api.AnalyzeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Class != "guarded" || out.NumRules == nil || *out.NumRules != 2 ||
		out.MaxArity == nil || *out.MaxArity != 2 {
		t.Errorf("classify got %+v", out)
	}
	want := []string{"gate/2", "live/1", "out/2"}
	if len(out.Predicates) != len(want) {
		t.Fatalf("predicates %v, want %v", out.Predicates, want)
	}
	for i := range want {
		if out.Predicates[i] != want[i] {
			t.Fatalf("predicates %v, want %v", out.Predicates, want)
		}
	}
	if len(out.Fingerprint) != 64 {
		t.Errorf("fingerprint %q", out.Fingerprint)
	}
}

func TestDecideEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 2})
	req := api.AnalyzeRequest{Kind: api.KindDecide, Rules: example1, Variant: "so"}
	resp, data := postJSON(t, srv.URL+"/v2/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out api.AnalyzeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	d := out.Decision
	if d == nil || d.Terminates != "non-terminating" || d.Class != "simple-linear" {
		t.Fatalf("decide got %+v", out)
	}
	if d.Method == "" || d.Witness == "" || out.Cached {
		t.Errorf("decide metadata wrong: %+v", out)
	}

	// The same request again is a cache hit.
	_, data = postJSON(t, srv.URL+"/v2/analyze", req)
	out = api.AnalyzeResponse{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("repeat decide not served from cache")
	}
}

func TestChaseEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 2})
	rules := `professor(X) -> teaches(X,C).
	          teaches(X,C) -> course(C).`
	resp, data := postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{
		Kind:        api.KindChase,
		Rules:       rules,
		Database:    `professor(turing).`,
		Variant:     "r",
		ReturnFacts: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out api.AnalyzeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Chase == nil || out.Chase.Outcome != "terminated" || out.Chase.Stats.FactsAdded == 0 {
		t.Fatalf("chase got %+v", out)
	}
	found := false
	for _, f := range out.Chase.Facts {
		if strings.HasPrefix(f, "course(") {
			found = true
		}
	}
	if !found {
		t.Errorf("chase facts missing derived course atom: %v", out.Chase.Facts)
	}

	// Empty database chases the critical instance (divergent here, so a
	// tight budget must report budget-exceeded, not hang).
	resp, data = postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{
		Kind:        api.KindChase,
		Rules:       example1,
		Variant:     "so",
		MaxTriggers: 100,
		MaxFacts:    100,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("critical chase status %d: %s", resp.StatusCode, data)
	}
	out = api.AnalyzeResponse{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Chase == nil || out.Chase.Outcome == "terminated" {
		t.Errorf("critical chase of Example 1 cannot terminate: %+v", out)
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 4})
	jobs := []api.AnalyzeRequest{
		{Kind: api.KindClassify, Rules: `p(X) -> q(X).`},
		{Kind: api.KindDecide, Rules: example1, Variant: "so"},
		{Kind: api.KindDecide, Rules: `broken`},
		{Kind: api.KindChase, Rules: `p(X) -> q(X).`, Database: `p(a).`},
	}
	resp, data := postJSON(t, srv.URL+"/v2/batch", api.BatchRequest{Jobs: jobs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out api.BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(jobs))
	}
	if out.Results[0].Class != "simple-linear" {
		t.Errorf("result 0: %+v", out.Results[0])
	}
	if d := out.Results[1].Decision; d == nil || d.Terminates != "non-terminating" {
		t.Errorf("result 1: %+v", out.Results[1])
	}
	if out.Results[2].Error == nil {
		t.Errorf("result 2 should carry the parse error: %+v", out.Results[2])
	}
	if c := out.Results[3].Chase; c == nil || c.Outcome != "terminated" {
		t.Errorf("result 3: %+v", out.Results[3])
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 2})
	postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{Kind: api.KindDecide, Rules: example1})
	postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{Kind: api.KindDecide, Rules: example1})
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.JobsServed != 2 || snap.CacheMisses != 1 || snap.CacheHits != 1 || snap.CacheEntries != 1 {
		t.Errorf("snapshot %+v", snap)
	}
	if snap.P50Millis < 0 || snap.P99Millis < snap.P50Millis {
		t.Errorf("latency quantiles inconsistent: %+v", snap)
	}
}

// hasErrorMessage reports whether data is an error envelope carrying a
// message.
func hasErrorMessage(data []byte) bool {
	var env api.ErrorEnvelope
	return json.Unmarshal(data, &env) == nil && env.Error != nil && env.Error.Message != ""
}

func TestHTTPErrorMapping(t *testing.T) {
	slow := make(chan struct{})
	defer close(slow)
	srv := newTestServer(t, Options{
		Workers:    1,
		JobTimeout: 30 * time.Millisecond,
		DecideFunc: func(_ context.Context, _ *chaseterm.RuleSet, _ chaseterm.Variant, _ chaseterm.DecideOptions) (*chaseterm.Verdict, error) {
			<-slow
			return nil, nil
		},
	})

	// Malformed JSON → 400.
	resp, err := http.Post(srv.URL+"/v2/analyze", "application/json", strings.NewReader(`{"kind": "decide", "rules": 5`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// Bad rules → 400 with a JSON error body.
	resp, data := postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{Kind: api.KindDecide, Rules: `nope nope`})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad rules: status %d, want 400", resp.StatusCode)
	}
	if !hasErrorMessage(data) {
		t.Errorf("bad rules: error body %s", data)
	}

	// Unknown field → 400 (DisallowUnknownFields guards against typos).
	resp, _ = postJSON(t, srv.URL+"/v2/analyze", map[string]any{"kind": "decide", "rules": example1, "varient": "so"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	// Wrong method → 405.
	resp, err = http.Get(srv.URL + "/v2/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on analyze: status %d, want 405", resp.StatusCode)
	}

	// Job timeout → 504.
	resp, data = postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{Kind: api.KindDecide, Rules: example1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("timeout: status %d (%s), want 504", resp.StatusCode, data)
	}
}

func TestHTTPOversizedBodyMapsTo413(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	// Valid JSON whose string payload crosses the byte cap, so the
	// decoder actually reads past MaxBytesReader's limit.
	big := `{"kind": "classify", "rules": "` + strings.Repeat("x", maxBodyBytes+1) + `"}`
	resp, err := http.Post(srv.URL+"/v2/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

func TestHTTPBudgetExceededMapsTo422(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	resp, data := postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{
		Kind: api.KindDecide,
		Rules: `gate(X,Y), live(X) -> out(Y,Z), live(Z).
		        out(Y,Z) -> gate(Y,Z).`,
		MaxNodeTypes: 1,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("budget exceeded: status %d (%s), want 422", resp.StatusCode, data)
	}
	if !hasErrorMessage(data) {
		t.Errorf("budget exceeded: error body %s", data)
	}
}
