package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// quiet keeps server log records out of the test output.
func quiet() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestServerLifecycle boots the server on an ephemeral port, exercises
// the health and analysis endpoints end to end, and checks that a
// context cancellation shuts it down cleanly.
func TestServerLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, config{
			addr:    "127.0.0.1:0",
			timeout: 30 * time.Second,
		}, quiet(), func(a net.Addr) { addrs <- a })
	}()

	var base string
	select {
	case a := <-addrs:
		base = fmt.Sprintf("http://%s", a)
	case err := <-done:
		t.Fatalf("server exited before becoming ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// The versioned route: kind in the body, api types on the wire.
	body, _ := json.Marshal(map[string]string{
		"kind":  "decide",
		"rules": "person(X) -> hasFather(X,Y), person(Y).",
	})
	resp, err = http.Post(base+"/v2/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d", resp.StatusCode)
	}
	var out struct {
		Fingerprint string `json:"fingerprint"`
		Decision    struct {
			Terminates string `json:"terminates"`
		} `json:"decision"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Decision.Terminates != "non-terminating" || len(out.Fingerprint) != 64 {
		t.Fatalf("analyze response %+v", out)
	}

	// A repeat decide is served from the verdict cache.
	repeatResp, err := http.Post(base+"/v2/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer repeatResp.Body.Close()
	var repeat struct {
		Cached   bool `json:"cached"`
		Decision struct {
			Terminates string `json:"terminates"`
		} `json:"decision"`
	}
	if err := json.NewDecoder(repeatResp.Body).Decode(&repeat); err != nil {
		t.Fatal(err)
	}
	if repeat.Decision.Terminates != "non-terminating" {
		t.Fatalf("repeat response %+v", repeat)
	}
	if !repeat.Cached {
		t.Fatal("repeat decide did not hit the verdict cache")
	}

	// The Prometheus endpoint is wired in and reflects the traffic above.
	metricsResp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, err := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if metricsResp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", metricsResp.StatusCode)
	}
	if got := metricsResp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", got)
	}
	exposition := string(metricsBody)
	for _, want := range []string{
		"chased_cache_hits_total ",
		"chased_jobs_total 2",
		`chased_request_exec_seconds_bucket{endpoint="analyze",le="+Inf"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, exposition)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestGracefulDrain starts a shutdown while an analysis request is in
// flight and requires the request to still receive a complete response
// (the drain) and the server to exit cleanly and promptly — possible
// because in-flight jobs are context-aware and bounded by the job
// timeout, so Shutdown never waits on an unbounded computation.
func TestGracefulDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, config{
			addr:    "127.0.0.1:0",
			workers: 1,
			timeout: 2 * time.Second,
		}, quiet(), func(a net.Addr) { addrs <- a })
	}()
	var base string
	select {
	case a := <-addrs:
		base = fmt.Sprintf("http://%s", a)
	case err := <-done:
		t.Fatalf("server exited before becoming ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	// A divergent chase big enough to still be running when the shutdown
	// starts (but bounded, so the test never hangs even if the drain
	// were broken in a way that disabled cancellation).
	body, _ := json.Marshal(map[string]any{
		"kind":        "chase",
		"rules":       "person(X) -> hasFather(X,Y), person(Y).",
		"maxTriggers": 2_000_000,
		"maxFacts":    2_000_000,
	})
	type result struct {
		status int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v2/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		resc <- result{status: resp.StatusCode}
	}()

	// Wait until the job is observably in flight before starting the
	// drain (a fixed sleep would race the POST on a loaded machine).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatalf("stats during warm-up: %v", err)
		}
		var snap struct {
			InFlight int64 `json:"inFlight"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if decodeErr != nil {
			t.Fatalf("stats decode: %v", decodeErr)
		}
		if snap.InFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("chase request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel() // begin the graceful drain

	select {
	case r := <-resc:
		if r.err != nil {
			t.Fatalf("in-flight request was dropped during shutdown: %v", r.err)
		}
		// 200 if the run finished before the drain; 504 if its job
		// timeout cut it off. Either way the response was written in
		// full rather than the connection being severed.
		if r.status != http.StatusOK && r.status != http.StatusGatewayTimeout {
			t.Fatalf("in-flight request got status %d", r.status)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down after draining")
	}
}

func TestRunRejectsBadAddress(t *testing.T) {
	err := run(context.Background(), config{addr: "127.0.0.1:notaport", timeout: time.Second}, quiet(), nil)
	if err == nil {
		t.Fatal("bad listen address accepted")
	}
}

// TestPprofAndRuntimeStats boots the server with the opt-in pprof
// listener and checks both that the profiling endpoints answer and that
// /v1/stats carries the Go runtime memory/GC counters.
func TestPprofAndRuntimeStats(t *testing.T) {
	// Reserve an ephemeral port for pprof (close-and-reuse; fine in tests).
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pprofAddr := pl.Addr().String()
	pl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, config{
			addr:      "127.0.0.1:0",
			timeout:   30 * time.Second,
			pprofAddr: pprofAddr,
		}, quiet(), func(a net.Addr) { addrs <- a })
	}()
	var base string
	select {
	case a := <-addrs:
		base = fmt.Sprintf("http://%s", a)
	case err := <-done:
		t.Fatalf("server exited before becoming ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", pprofAddr))
	if err != nil {
		t.Fatalf("pprof endpoint: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Runtime struct {
			HeapAllocBytes uint64 `json:"heapAllocBytes"`
			NumGoroutine   int    `json:"numGoroutine"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Runtime.HeapAllocBytes == 0 || snap.Runtime.NumGoroutine <= 0 {
		t.Errorf("stats missing runtime counters: %+v", snap.Runtime)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestStoreSurvivesRestart is the process-level persistence check: a
// verdict decided by one server run is served store-warm (cached, one
// storeHit) by a second run pointed at the same -store file.
func TestStoreSurvivesRestart(t *testing.T) {
	storePath := t.TempDir() + "/verdicts.db"
	cfg := config{
		addr:      "127.0.0.1:0",
		timeout:   30 * time.Second,
		storePath: storePath,
		fsync:     "always",
	}
	body, _ := json.Marshal(map[string]string{
		"kind":  "decide",
		"rules": "person(X) -> hasFather(X,Y), person(Y).",
	})

	decide := func(base string) (cached bool) {
		resp, err := http.Post(base+"/v2/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze status %d", resp.StatusCode)
		}
		var out struct {
			Cached bool `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Cached
	}

	boot := func() (base string, stop func()) {
		ctx, cancel := context.WithCancel(context.Background())
		addrs := make(chan net.Addr, 1)
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, cfg, quiet(), func(a net.Addr) { addrs <- a })
		}()
		select {
		case a := <-addrs:
			base = fmt.Sprintf("http://%s", a)
		case err := <-done:
			t.Fatalf("server exited before becoming ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("server never became ready")
		}
		return base, func() {
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("server exited with %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("server did not shut down")
			}
		}
	}

	base, stop := boot()
	if decide(base) {
		t.Fatal("first decide claims cached")
	}
	healthResp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Store  *struct {
			Degraded bool `json:"degraded"`
		} `json:"store"`
	}
	if err := json.NewDecoder(healthResp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	healthResp.Body.Close()
	if health.Status != "ok" || health.Store == nil || health.Store.Degraded {
		t.Fatalf("healthz with healthy store = %+v", health)
	}
	stop()

	base, stop = boot()
	defer stop()
	if !decide(base) {
		t.Fatal("restarted server did not serve the persisted verdict as a cache hit")
	}
	statsResp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats struct {
		StoreHits     int64 `json:"storeHits"`
		StoreDegraded bool  `json:"storeDegraded"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.StoreHits != 1 || stats.StoreDegraded {
		t.Fatalf("restarted stats = %+v, want 1 store hit, not degraded", stats)
	}
}

// TestStoreDegradedBoot: a store path that cannot be opened must not
// stop the server — it boots degraded and keeps serving.
func TestStoreDegradedBoot(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, config{
			addr:      "127.0.0.1:0",
			timeout:   30 * time.Second,
			storePath: t.TempDir() + "/no/such/dir/verdicts.db",
			fsync:     "interval",
		}, quiet(), func(a net.Addr) { addrs <- a })
	}()
	var base string
	select {
	case a := <-addrs:
		base = fmt.Sprintf("http://%s", a)
	case err := <-done:
		t.Fatalf("server refused to boot with a broken store: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	body, _ := json.Marshal(map[string]string{
		"kind":  "decide",
		"rules": "person(X) -> hasFather(X,Y), person(Y).",
	})
	resp, err := http.Post(base+"/v2/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d with degraded store, want 200", resp.StatusCode)
	}
	healthResp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer healthResp.Body.Close()
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(healthResp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("healthz status %q with broken store, want degraded", health.Status)
	}
}
