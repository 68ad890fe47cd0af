package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"chaseterm/api"
	"chaseterm/internal/obs"
)

// scrape fetches /metrics and returns the parsed exposition.
func scrape(t *testing.T, base string) exposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

// exposition is a parsed Prometheus text-format scrape: the declared
// type of each metric family plus every sample keyed by its full series
// name (including the label set).
type exposition struct {
	types   map[string]string  // family -> counter|gauge|histogram
	help    map[string]bool    // family -> has # HELP
	samples map[string]float64 // "name{labels}" -> value
}

func parseExposition(t *testing.T, text string) exposition {
	t.Helper()
	exp := exposition{
		types:   map[string]string{},
		help:    map[string]bool{},
		samples: map[string]float64{},
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("malformed HELP line %q", line)
			}
			exp.help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if prev, dup := exp.types[name]; dup {
				t.Fatalf("family %s declared twice (%s then %s)", name, prev, typ)
			}
			exp.types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, valText, found := strings.Cut(line, " ")
		if !found {
			t.Fatalf("malformed sample line %q", line)
		}
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		if _, dup := exp.samples[series]; dup {
			t.Fatalf("series %s appears twice", series)
		}
		exp.samples[series] = val
	}
	return exp
}

// familyOf maps a series name back to its metric family: labels are
// stripped, and the histogram suffixes fold into the base name.
func familyOf(series string) string {
	name, _, _ := strings.Cut(series, "{")
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			return base
		}
	}
	return name
}

// drive sends a fixed batch of traffic: two identical decides (the
// second is a cache hit), one chase (real engine counters), and one
// malformed request (a failed job is not counted — it never decodes).
func drive(t *testing.T, base string) {
	t.Helper()
	decide := map[string]any{"kind": "decide", "rules": "person(X) -> hasFather(X,Y), person(Y)."}
	for i := 0; i < 2; i++ {
		resp, _ := postJSON(t, base+"/v2/analyze", decide)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decide status %d", resp.StatusCode)
		}
	}
	chase := map[string]any{
		"kind": "chase", "rules": "e(X,Y) -> e(Y,Z).", "database": "e(a,b).",
		"maxTriggers": 50, "maxFacts": 100,
	}
	resp, _ := postJSON(t, base+"/v2/analyze", chase)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chase status %d", resp.StatusCode)
	}
}

// TestMetricsExposition pins the full contract of GET /metrics: every
// registered family is declared with # HELP and a well-formed # TYPE,
// the expected series exist with values that reflect the traffic, the
// histograms are internally consistent, and counters are monotone
// across scrapes.
func TestMetricsExposition(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 2})
	drive(t, srv.URL)
	first := scrape(t, srv.URL)

	wantTypes := map[string]string{
		"chased_cache_hits_total":         "counter",
		"chased_cache_misses_total":       "counter",
		"chased_jobs_total":               "counter",
		"chased_jobs_failed_total":        "counter",
		"chased_streams_total":            "counter",
		"chased_streams_aborted_total":    "counter",
		"chased_stream_facts_total":       "counter",
		"chased_stream_events_total":      "counter",
		"chased_triggers_applied_total":   "counter",
		"chased_triggers_noop_total":      "counter",
		"chased_triggers_satisfied_total": "counter",
		"chased_facts_derived_total":      "counter",
		"chased_portfolio_decides_total":  "counter",
		"chased_portfolio_rung_total":     "counter",
		"chased_store_hits_total":         "counter",
		"chased_store_misses_total":       "counter",
		"chased_store_errors_total":       "counter",
		"chased_store_degraded":           "gauge",
		"chased_uptime_seconds":           "gauge",
		"chased_in_flight":                "gauge",
		"chased_pool_queue_depth":         "gauge",
		"chased_cache_entries":            "gauge",
		"chased_request_queue_seconds":    "histogram",
		"chased_request_exec_seconds":     "histogram",
	}
	for name, typ := range wantTypes {
		if got := first.types[name]; got != typ {
			t.Errorf("family %s: # TYPE %q, want %q", name, got, typ)
		}
		if !first.help[name] {
			t.Errorf("family %s: no # HELP line", name)
		}
	}
	for series := range first.samples {
		if _, known := wantTypes[familyOf(series)]; !known {
			t.Errorf("series %s has no # TYPE declaration", series)
		}
	}

	// Values reflect the driven traffic: 3 jobs, 1 cache hit, 1 miss
	// (the first decide — chase runs bypass the verdict cache), real
	// chase counters, no streams, nothing failed.
	wantValues := map[string]float64{
		"chased_cache_hits_total":   1,
		"chased_cache_misses_total": 1,
		"chased_jobs_total":         3,
		"chased_jobs_failed_total":  0,
		"chased_streams_total":      0,
	}
	for series, want := range wantValues {
		if got, ok := first.samples[series]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
	if got := first.samples["chased_triggers_applied_total"]; got < 50 {
		t.Errorf("chased_triggers_applied_total = %v, want >= 50 (the chase budget)", got)
	}
	if got := first.samples["chased_facts_derived_total"]; got <= 0 {
		t.Errorf("chased_facts_derived_total = %v, want > 0", got)
	}

	// Histogram invariants for the endpoint that served the traffic:
	// cumulative buckets are non-decreasing, the +Inf bucket equals
	// _count, and _count matches the jobs served.
	for _, fam := range []string{"chased_request_queue_seconds", "chased_request_exec_seconds"} {
		prefix := fam + `_bucket{endpoint="analyze",le="`
		var last float64
		var buckets int
		// Walk the declared buckets in order by re-deriving the bound list
		// from the sample keys is fragile; instead check pairwise via the
		// default bucket ladder plus +Inf.
		bounds := append([]float64(nil), obs.DefBuckets...)
		for _, b := range bounds {
			series := prefix + formatBound(b) + `"}`
			got, ok := first.samples[series]
			if !ok {
				t.Fatalf("missing bucket series %s", series)
			}
			if got < last {
				t.Errorf("%s: cumulative count %v below previous bucket %v", series, got, last)
			}
			last = got
			buckets++
		}
		inf, ok := first.samples[prefix+`+Inf"}`]
		if !ok {
			t.Fatalf("missing +Inf bucket for %s", fam)
		}
		if inf < last {
			t.Errorf("%s +Inf bucket %v below last finite bucket %v", fam, inf, last)
		}
		count := first.samples[fam+`_count{endpoint="analyze"}`]
		if inf != count || count != 3 {
			t.Errorf("%s: +Inf=%v _count=%v, want both 3", fam, inf, count)
		}
		if sum := first.samples[fam+`_sum{endpoint="analyze"}`]; sum < 0 {
			t.Errorf("%s _sum = %v, want >= 0", fam, sum)
		}
	}

	// A second scrape after more traffic: every counter is monotone.
	drive(t, srv.URL)
	second := scrape(t, srv.URL)
	for series, before := range first.samples {
		if familyType := first.types[familyOf(series)]; familyType == "gauge" {
			continue
		}
		after, ok := second.samples[series]
		if !ok {
			t.Errorf("series %s vanished between scrapes", series)
			continue
		}
		if after < before {
			t.Errorf("counter series %s went backwards: %v -> %v", series, before, after)
		}
	}
	if before, after := first.samples["chased_jobs_total"], second.samples["chased_jobs_total"]; after != before+3 {
		t.Errorf("chased_jobs_total %v -> %v, want +3", before, after)
	}
}

// formatBound renders a bucket bound the way the registry does.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// TestMetricsConcurrentScrape races jobs, streams, and scrapes; run
// under -race this pins the lock-free registry, and the final scrape
// must still account for every job exactly.
func TestMetricsConcurrentScrape(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 4})
	const goroutines, perG = 4, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Distinct rule sets defeat the cache so every job exercises
				// the full pool + histogram path.
				body, _ := json.Marshal(map[string]any{
					"kind":  "decide",
					"rules": fmt.Sprintf("p%d_%d(X) -> q(X,Y).", g, i),
				})
				resp, err := http.Post(srv.URL+"/v2/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	final := scrape(t, srv.URL)
	if got := final.samples["chased_jobs_total"]; got != goroutines*perG {
		t.Errorf("chased_jobs_total = %v after the dust settled, want %d", got, goroutines*perG)
	}
}

// TestTracedAnalyze pins the opt-in trace on the v2 wire: the response
// carries the request ID, per-stage spans, and engine counters, and the
// span durations sum to no more than the reported wall time.
func TestTracedAnalyze(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	body, _ := json.Marshal(map[string]any{
		"kind": "chase", "rules": "e(X,Y) -> e(Y,Z).", "database": "e(a,b).",
		"maxTriggers": 50, "maxFacts": 100, "trace": true,
	})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v2/analyze", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "trace-e2e-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "trace-e2e-1" {
		t.Errorf("X-Request-ID header = %q, want the client's ID echoed", got)
	}
	var out api.AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	tr := out.Trace
	if tr == nil {
		t.Fatal("trace requested but response carries none")
	}
	if tr.RequestID != "trace-e2e-1" {
		t.Errorf("trace.requestId = %q, want the header's ID", tr.RequestID)
	}
	if tr.WallMillis <= 0 {
		t.Errorf("trace.wallMillis = %v, want > 0", tr.WallMillis)
	}
	spans := map[string]float64{}
	var spanSum float64
	for _, s := range tr.Spans {
		if s.Millis < 0 {
			t.Errorf("span %s has negative duration %v", s.Name, s.Millis)
		}
		spans[s.Name] = s.Millis
		spanSum += s.Millis
	}
	for _, want := range []string{"decode", "chase"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("trace is missing the %q span (got %v)", want, spans)
		}
	}
	// The stages are disjoint slices of the request's life, so their sum
	// cannot exceed the wall time (tiny float slack for the ns→ms math).
	if spanSum > tr.WallMillis*1.0001 {
		t.Errorf("span sum %vms exceeds wallMillis %vms", spanSum, tr.WallMillis)
	}
	if tr.Engine == nil {
		t.Fatal("traced chase run has no engine counters")
	}
	if tr.Engine.TriggersApplied < 50 || tr.Engine.FactsAdded <= 0 {
		t.Errorf("engine counters not populated: %+v", tr.Engine)
	}
	if tr.Engine.TriggersEnqueued < tr.Engine.TriggersApplied {
		t.Errorf("enqueued %d < applied %d", tr.Engine.TriggersEnqueued, tr.Engine.TriggersApplied)
	}

	// Without the opt-in the response carries no trace at all.
	plain, data := postJSON(t, srv.URL+"/v2/analyze", map[string]any{
		"kind": "chase", "rules": "e(X,Y) -> e(Y,Z).", "database": "e(a,b).",
		"maxTriggers": 50, "maxFacts": 100,
	})
	if plain.StatusCode != http.StatusOK {
		t.Fatalf("untraced status %d", plain.StatusCode)
	}
	if bytes.Contains(data, []byte(`"trace"`)) {
		t.Error("untraced response leaks a trace field")
	}
}

// TestRequestIDOnErrors pins the request ID on the failure surface: the
// error envelope carries the client's ID, and a generated ID appears
// when the client sends none.
func TestRequestIDOnErrors(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v2/analyze",
		strings.NewReader(`{"kind": "decide", "rules": "this is not datalog"}`))
	req.Header.Set("X-Request-ID", "err-e2e-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var envelope api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.RequestID != "err-e2e-7" {
		t.Errorf("envelope requestId = %q, want the client's ID", envelope.RequestID)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "err-e2e-7" {
		t.Errorf("X-Request-ID header = %q on error", got)
	}

	// The server generates an ID when the client sends none, and the
	// body carries the same one as the header.
	genResp, data := postJSON(t, srv.URL+"/v2/analyze", map[string]string{"kind": "decide", "rules": "nope("})
	if genResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", genResp.StatusCode)
	}
	var generated api.ErrorEnvelope
	if err := json.Unmarshal(data, &generated); err != nil {
		t.Fatal(err)
	}
	if generated.RequestID == "" {
		t.Errorf("error body has no requestId: %s", data)
	}
	if generated.RequestID != genResp.Header.Get("X-Request-ID") {
		t.Errorf("body requestId %q != header %q", generated.RequestID, genResp.Header.Get("X-Request-ID"))
	}
}

// TestRequestLogRecord captures the structured completion record of a
// served job and checks the promised fields are all present.
func TestRequestLogRecord(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	eng := New(Options{Workers: 1, Logger: logger, SlowRequest: time.Nanosecond})
	defer eng.Close()

	ctx := obs.WithRequestID(context.Background(), "log-e2e-3")
	resp, err := eng.Analyze(ctx, api.AnalyzeRequest{
		Kind:  api.KindDecide,
		Rules: "person(X) -> hasFather(X,Y), person(Y).",
	})
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	line := strings.TrimSpace(buf.String())
	mu.Unlock()
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("log record is not one JSON object: %q: %v", line, err)
	}
	if rec["msg"] != "request" {
		t.Errorf("msg = %v", rec["msg"])
	}
	if rec["requestId"] != "log-e2e-3" {
		t.Errorf("requestId = %v", rec["requestId"])
	}
	if rec["endpoint"] != "analyze" || rec["kind"] != "decide" {
		t.Errorf("endpoint/kind = %v/%v", rec["endpoint"], rec["kind"])
	}
	if rec["fingerprint"] != resp.Fingerprint {
		t.Errorf("fingerprint = %v, want %v", rec["fingerprint"], resp.Fingerprint)
	}
	if rec["verdict"] != "non-terminating" {
		t.Errorf("verdict = %v", rec["verdict"])
	}
	if _, ok := rec["cached"]; !ok {
		t.Error("decide record has no cached field")
	}
	if _, ok := rec["queueMillis"].(float64); !ok {
		t.Errorf("queueMillis missing or not a number: %v", rec["queueMillis"])
	}
	if _, ok := rec["execMillis"].(float64); !ok {
		t.Errorf("execMillis missing or not a number: %v", rec["execMillis"])
	}
	// SlowRequest was set to 1ns, so the record is a WARN with slow=true.
	if rec["level"] != "WARN" || rec["slow"] != true {
		t.Errorf("slow-request record: level=%v slow=%v, want WARN/true", rec["level"], rec["slow"])
	}
}

// lockedWriter serializes writes so the test can read the buffer
// without racing the engine's log goroutine.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestInstrumentationAllocs pins the per-request cost of the
// observability layer itself: one trace checkout, the queue/exec split,
// both stats windows, two histogram observations, and the trace
// return — at most one allocation (the context carrying the trace).
func TestInstrumentationAllocs(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		jctx, tr, owned := eng.beginRequest(ctx)
		_ = jctx
		eng.endRequest(endpointAnalyze, tr, time.Millisecond, false)
		eng.logRequest(jctx, endpointAnalyze, api.KindDecide, nil, nil, 0, time.Millisecond, time.Millisecond)
		if owned {
			obs.PutTrace(tr)
		}
	})
	if allocs > 1 {
		t.Errorf("instrumentation path allocates %v per request, want <= 1", allocs)
	}
}

// TestStatsQueueExecSplit pins the /v1/stats latency split: the new
// queue/exec quantiles are reported separately and the legacy
// whole-request fields remain their sum.
func TestStatsQueueExecSplit(t *testing.T) {
	s := newStats()
	for i := 0; i < 10; i++ {
		s.observe(2*time.Millisecond, 3*time.Millisecond, false)
	}
	snap := s.snapshot(0, false)
	if snap.QueueP50Millis != 2 || snap.QueueP99Millis != 2 {
		t.Errorf("queue quantiles %v/%v, want 2/2", snap.QueueP50Millis, snap.QueueP99Millis)
	}
	if snap.ExecP50Millis != 3 || snap.ExecP99Millis != 3 {
		t.Errorf("exec quantiles %v/%v, want 3/3", snap.ExecP50Millis, snap.ExecP99Millis)
	}
	if snap.P50Millis != 5 || snap.P99Millis != 5 {
		t.Errorf("legacy quantiles %v/%v, want the 5/5 sum", snap.P50Millis, snap.P99Millis)
	}
}
