package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chaseterm"
	"chaseterm/api"
)

func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

func TestAnalyzeEndpointDecide(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 2})
	resp, data := postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{
		Kind:  api.KindDecide,
		Rules: example1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out api.AnalyzeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != api.KindDecide || out.Class != "simple-linear" || len(out.Fingerprint) != 64 {
		t.Errorf("base block wrong: %+v", out)
	}
	if out.Decision == nil || out.Decision.Terminates != "non-terminating" || out.Decision.Method == "" {
		t.Errorf("decision block wrong: %+v", out.Decision)
	}
	if out.NumRules == nil || *out.NumRules != 1 {
		t.Errorf("v2 responses always carry the schema block: %+v", out)
	}

	// Identical request → served from the shared verdict cache.
	_, data = postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{Kind: api.KindDecide, Rules: example1})
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("repeat v2 decide not served from cache")
	}
}

// TestAnalyzeSharesCacheWithBatch: the batch route and the analyze
// route are one engine; a verdict computed through either is a hit
// through the other.
func TestAnalyzeSharesCacheWithBatch(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 2})
	postJSON(t, srv.URL+"/v2/batch", api.BatchRequest{Jobs: []api.AnalyzeRequest{{Kind: api.KindDecide, Rules: example1}}})
	_, data := postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{Kind: api.KindDecide, Rules: example1})
	var out api.AnalyzeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("analyze request missed the verdict the batch job computed")
	}
}

func TestAnalyzeEndpointChaseAndAcyclicity(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 2})
	resp, data := postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{
		Kind:           api.KindChase,
		Rules:          `professor(X) -> teaches(X,C). teaches(X,C) -> course(C).`,
		Database:       `professor(turing).`,
		Variant:        "r",
		ReturnFacts:    true,
		WithAcyclicity: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out api.AnalyzeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Chase == nil || out.Chase.Outcome != "terminated" || out.Chase.Stats.FactsAdded == 0 {
		t.Errorf("chase block wrong: %+v", out.Chase)
	}
	if len(out.Chase.Facts) == 0 {
		t.Error("returnFacts ignored")
	}
	if out.Acyclicity == nil || !out.Acyclicity.WeaklyAcyclic {
		t.Errorf("withAcyclicity block wrong: %+v", out.Acyclicity)
	}

	// Dedicated acyclicity kind.
	resp, data = postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{
		Kind:  api.KindAcyclicity,
		Rules: "p(X) -> q(X,Y).\nq(X,Y), q(Y,X) -> p(Y).",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acyclicity status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Acyclicity == nil || out.Acyclicity.WeaklyAcyclic || !out.Acyclicity.JointlyAcyclic {
		t.Errorf("acyclicity report wrong: %+v", out.Acyclicity)
	}
}

// TestAnalyzeDecideOnDatabase: a database on a decide job switches to
// the fixed-database problem — new capability of the v2 contract.
func TestAnalyzeDecideOnDatabase(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 2})
	_, data := postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{
		Kind:     api.KindDecide,
		Rules:    `p(X,Y) -> p(Y,Z).`,
		Database: `q(a).`, // no p-facts: the dangerous rule never fires
	})
	var out api.AnalyzeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Decision == nil || out.Decision.Terminates != "terminating" {
		t.Errorf("fixed-db decision wrong: %+v", out.Decision)
	}
	if !strings.Contains(out.Decision.Method, "fixed-db") {
		t.Errorf("method %q does not name the fixed-db procedure", out.Decision.Method)
	}
}

func TestAnalyzeErrorEnvelope(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name     string
		body     string
		wantCode api.Code
		wantHTTP int
	}{
		{"bad rules", `{"kind": "decide", "rules": "nope nope"}`, api.CodeBadRequest, 400},
		{"unknown kind", `{"kind": "mystery", "rules": "p(X) -> q(X)."}`, api.CodeBadRequest, 400},
		{"missing kind", `{"rules": "p(X) -> q(X)."}`, api.CodeBadRequest, 400},
		{"unknown field", `{"kind": "decide", "rules": "p(X) -> q(X).", "varient": "so"}`, api.CodeBadRequest, 400},
		// Not weakly acyclic, so the ladder climbs to the guarded-exact
		// rung, where a node-type cap of one gives up.
		{"budget exceeded", `{"kind": "decide", "rules": "gate(X,Y), live(X) -> out(Y,Z), live(Z). out(Y,Z) -> gate(Y,Z).", "maxNodeTypes": 1}`, api.CodeUnprocessable, 422},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postRaw(t, srv.URL+"/v2/analyze", tc.body)
			if resp.StatusCode != tc.wantHTTP {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, data, tc.wantHTTP)
			}
			var env api.ErrorEnvelope
			if err := json.Unmarshal(data, &env); err != nil || env.Error == nil {
				t.Fatalf("not an error envelope: %s", data)
			}
			if env.Error.Code != tc.wantCode || env.Error.Message == "" {
				t.Errorf("envelope %+v, want code %s", env.Error, tc.wantCode)
			}
		})
	}
}

// TestDecodeRejectsTrailingGarbage: the body must be exactly one JSON
// value. Concatenated bodies previously had everything after the first
// value silently ignored — masking client bugs.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	job := `{"kind": "classify", "rules": "p(X) -> q(X)."}`
	bodies := map[string]string{"/v2/analyze": job, "/v2/batch": `{"jobs": [` + job + `]}`}
	for _, route := range []string{"/v2/analyze", "/v2/batch"} {
		good := bodies[route]
		t.Run(route, func(t *testing.T) {
			// Sanity: the clean body succeeds.
			resp, data := postRaw(t, srv.URL+route, good)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("clean body: status %d (%s)", resp.StatusCode, data)
			}
			// The same body with a second value appended must be a 400.
			resp, data = postRaw(t, srv.URL+route, good+` {"kind": "chase"}`)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("trailing garbage: status %d (%s), want 400", resp.StatusCode, data)
			}
			if !strings.Contains(string(data), "trailing data") {
				t.Errorf("error body does not name the problem: %s", data)
			}
		})
	}
	// The error envelope carries the machine-readable code.
	resp, data := postRaw(t, srv.URL+"/v2/batch", bodies["/v2/batch"]+`42`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Error == nil || env.Error.Code != api.CodeBadRequest {
		t.Errorf("error body %s, want code %q", data, api.CodeBadRequest)
	}
}

// TestPanickingDecideFuncDoesNotCrashOrDeadlock is the end-to-end
// regression test for both panic paths at once: a DecideFunc that
// panics must come back as a 500/"internal" envelope (pool recovery),
// the server must stay alive, and — critically — a repeat request for
// the same rule set must fail the same way instead of blocking forever
// on a leaked singleflight entry (cache cleanup).
func TestPanickingDecideFuncDoesNotCrashOrDeadlock(t *testing.T) {
	var calls atomic.Int64
	srv := newTestServer(t, Options{
		Workers: 1,
		DecideFunc: func(context.Context, *chaseterm.RuleSet, chaseterm.Variant, chaseterm.DecideOptions) (*chaseterm.Verdict, error) {
			calls.Add(1)
			panic("FindHoms: oversized initial binding")
		},
	})
	client := &http.Client{Timeout: 10 * time.Second}
	post := func() (*http.Response, []byte) {
		t.Helper()
		body, _ := json.Marshal(api.AnalyzeRequest{Kind: api.KindDecide, Rules: example1})
		resp, err := client.Post(srv.URL+"/v2/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("request failed (server crashed or deadlocked?): %v", err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}
	for i := 0; i < 2; i++ {
		resp, data := post()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("attempt %d: status %d (%s), want 500", i, resp.StatusCode, data)
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(data, &env); err != nil || env.Error == nil {
			t.Fatalf("attempt %d: not an error envelope: %s", i, data)
		}
		if env.Error.Code != api.CodeInternal || !strings.Contains(env.Error.Message, "panicked") {
			t.Errorf("attempt %d: envelope %+v, want internal/panicked", i, env.Error)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("decider ran %d times, want 2 (nothing cached, nothing deadlocked)", n)
	}
	// The server is still fully functional for healthy work.
	resp, data := postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{Kind: api.KindClassify, Rules: example1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request after panics: status %d (%s)", resp.StatusCode, data)
	}
}

// TestDecodeOversizedTrailingMapsTo413: when the first JSON value fits
// under the body cap but the bytes after it push past it, the failure
// is an oversize (413 "too_large"), not "trailing data" (400) — the
// probe read hit MaxBytesReader, it did not find a second value.
func TestDecodeOversizedTrailingMapsTo413(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	body := `{"kind": "classify", "rules": "p(X) -> q(X)."}` + strings.Repeat(" ", maxBodyBytes)
	resp, data := postRaw(t, srv.URL+"/v2/analyze", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, data)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Error == nil || env.Error.Code != api.CodeTooLarge {
		t.Fatalf("body %s, want envelope with code too_large", data)
	}
	if strings.Contains(env.Error.Message, "trailing data") {
		t.Errorf("oversize mislabeled as trailing data: %s", env.Error.Message)
	}
}

func TestV2BatchEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 4})
	resp, data := postJSON(t, srv.URL+"/v2/batch", api.BatchRequest{Jobs: []api.AnalyzeRequest{
		{Kind: api.KindClassify, Rules: `p(X) -> q(X).`},
		{Kind: api.KindDecide, Rules: `broken`},
		{Kind: api.KindAcyclicity, Rules: `p(X) -> q(X,Y).`},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out api.BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results", len(out.Results))
	}
	if out.Results[0].Class != "simple-linear" || out.Results[0].Error != nil {
		t.Errorf("result 0: %+v", out.Results[0])
	}
	if out.Results[1].Error == nil || out.Results[1].Error.Code != api.CodeBadRequest {
		t.Errorf("result 1 should carry a coded error: %+v", out.Results[1])
	}
	if out.Results[2].Acyclicity == nil || !out.Results[2].Acyclicity.WeaklyAcyclic {
		t.Errorf("result 2: %+v", out.Results[2])
	}
}

// TestResponsesAreCompact: every one-shot body — analyze, batch, error,
// health, capabilities, stats — is one line of compact JSON.
func TestResponsesAreCompact(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 2})
	var bodies [][]byte
	for _, req := range []string{
		`{"kind": "chase", "rules": "p(X) -> q(X,Y).", "database": "p(a). p(b).", "returnFacts": true}`,
		`{"kind": "decide", "rules": "nope nope"}`,
	} {
		_, data := postRaw(t, srv.URL+"/v2/analyze", req)
		bodies = append(bodies, data)
	}
	_, data := postRaw(t, srv.URL+"/v2/batch", `{"jobs": [{"kind": "classify", "rules": "p(X) -> q(X)."}]}`)
	bodies = append(bodies, data)
	for _, path := range []string{"/healthz", "/v2/capabilities", "/v1/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, data)
	}
	for _, data := range bodies {
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatalf("%v: %s", err, data)
		}
		if want := append(compact.Bytes(), '\n'); !bytes.Equal(data, want) {
			t.Errorf("body is not one line of compact JSON:\n%s", data)
		}
	}
}

// wantErrorEnvelope fails unless the response is the given status with an
// error envelope carrying the given code.
func wantErrorEnvelope(t *testing.T, what string, resp *http.Response, data []byte, status int, code api.Code) {
	t.Helper()
	if resp.StatusCode != status {
		t.Errorf("%s: status %d (%s), want %d", what, resp.StatusCode, data, status)
		return
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Error == nil || env.Error.Code != code {
		t.Errorf("%s: body %s, want an error envelope with code %s", what, data, code)
	}
}

// TestChaseWorkersValidation: the chase runs on one sequential engine and
// the wire has no chaseWorkers field, so strict decoding rejects a
// request that carries one, whatever its value, on every route.
func TestChaseWorkersValidation(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	for _, workers := range []string{"0", "1", "8"} {
		job := `{"kind": "chase", "rules": "p(X) -> q(X,Y).", "database": "p(a).", "chaseWorkers": ` + workers + `}`
		for route, body := range map[string]string{
			"/v2/analyze":      job,
			"/v2/chase/stream": job,
			"/v2/batch":        `{"jobs": [` + job + `]}`,
		} {
			resp, data := postRaw(t, srv.URL+route, body)
			wantErrorEnvelope(t, route+" chaseWorkers="+workers, resp, data, http.StatusBadRequest, api.CodeBadRequest)
		}
	}
}

// TestDatabaseArityMismatchIsBadRequest: a database that disagrees with
// the rules' arities is a client error, answered while the request is
// read. The engine's worker pool is closed before the requests arrive,
// so one that got as far as a worker would answer 503 instead.
func TestDatabaseArityMismatchIsBadRequest(t *testing.T) {
	eng := New(Options{Workers: 1})
	srv := httptest.NewServer(NewHandler(eng))
	t.Cleanup(srv.Close)
	eng.Close()
	for _, c := range []struct{ rules, db string }{
		{"p(X,Y) -> p(Y,Z).", "p(a,b,c)."},
		{"p(X,Y), q(X) -> p(Y,Z).", "p(a,b,c). q(a)."},
		{"p(X,Y) -> p(Y,Z).", "p(a)."},
		{"p(X,Y), q(X) -> p(Y,Z).", "p(a). q(a)."},
		{"p(X,Y), q(X,W) -> p(Y,Z), q(Y,X).", "p(a,b). q(a)."},
		{"a(X), b(Y) -> c(X,Y). c(X,Y) -> c(Y,Z).", "a(x). b(y,z)."},
	} {
		for _, kind := range []api.Kind{api.KindDecide, api.KindChase} {
			resp, data := postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{Kind: kind, Rules: c.rules, Database: c.db})
			wantErrorEnvelope(t, string(kind)+" "+c.rules+" on "+c.db, resp, data, http.StatusBadRequest, api.CodeBadRequest)
		}
		resp, data := postJSON(t, srv.URL+"/v2/chase/stream", api.AnalyzeRequest{Rules: c.rules, Database: c.db})
		wantErrorEnvelope(t, "stream "+c.rules+" on "+c.db, resp, data, http.StatusBadRequest, api.CodeBadRequest)
	}
	// A database that fits gets past the check and meets the closed pool.
	resp, data := postJSON(t, srv.URL+"/v2/analyze", api.AnalyzeRequest{Kind: api.KindChase, Rules: "p(X,Y) -> p(Y,Z).", Database: "p(a,b)."})
	wantErrorEnvelope(t, "fitting database", resp, data, http.StatusServiceUnavailable, api.CodeUnavailable)
}
