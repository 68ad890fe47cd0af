package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"chaseterm/api"
)

// TestWorkerFreedPromptlyAfterTimeout is the regression test for the
// worker-starvation bug this module's cancellation plumbing fixes: a
// job that times out must release its worker within one engine check
// interval, not after grinding through its full trigger budget.
//
// The engine has a single worker. The first job is a divergent chase
// with the maximum request budget (10M triggers — tens of seconds of
// work) under a 150ms job timeout; before the fix the worker stayed
// pinned on it long after the caller's 504. The second, cheap job can
// then only succeed promptly if the slot actually came back.
func TestWorkerFreedPromptlyAfterTimeout(t *testing.T) {
	eng := New(Options{
		Workers:    1,
		JobTimeout: 150 * time.Millisecond,
	})
	defer eng.Close()

	heavy := api.AnalyzeRequest{
		Kind:        api.KindChase,
		Rules:       example1,
		MaxTriggers: maxRequestBudget,
		MaxFacts:    maxRequestBudget,
	}
	start := time.Now()
	_, err := eng.Analyze(context.Background(), heavy)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("heavy job: got %v, want deadline exceeded", err)
	}

	light := api.AnalyzeRequest{Kind: api.KindChase, Rules: example1, MaxTriggers: 10}
	resp, err := eng.Analyze(context.Background(), light)
	if err != nil {
		t.Fatalf("light job after timeout: %v", err)
	}
	if resp.Chase.Outcome != "budget-exceeded" {
		t.Fatalf("light job outcome %q, want budget-exceeded", resp.Chase.Outcome)
	}
	// Both jobs together: one 150ms timeout plus a trivial chase plus
	// the cancellation latency of ~1024 trigger applications. Seconds of
	// headroom for slow CI; today's code would need ~minutes.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("worker took %v to come back after a 150ms job timeout", elapsed)
	}
}

// TestDecideJobHonorsTimeout: the decide path (shared singleflight,
// detached context) also cancels its underlying analysis instead of
// running the oracle to its budget.
func TestDecideJobHonorsTimeout(t *testing.T) {
	eng := New(Options{
		Workers:    1,
		JobTimeout: 100 * time.Millisecond,
	})
	defer eng.Close()
	// Non-WA general set: the ladder climbs to the bounded critical
	// chase, which is the long-running part the timeout must interrupt.
	req := api.AnalyzeRequest{
		Kind:  api.KindDecide,
		Rules: `p(X), q(Y) -> s(X,Y). s(X,Y) -> p(Z), t(X,Z).`,
	}
	start := time.Now()
	_, err := eng.Analyze(context.Background(), req)
	// The default oracle budget (200k triggers) may or may not outlast
	// 100ms on a fast machine; either the deadline fired or the analysis
	// finished with an Unknown verdict. What must not happen is the
	// worker staying busy afterwards.
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want nil or deadline exceeded", err)
	}
	light := api.AnalyzeRequest{Kind: api.KindChase, Rules: example1, MaxTriggers: 10}
	if _, err := eng.Analyze(context.Background(), light); err != nil {
		t.Fatalf("light job after decide timeout: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("worker took %v to come back", elapsed)
	}
}

// TestCanceledClientCancelsChaseJob: a client hang-up (context cancel),
// not just a deadline, stops an in-flight chase job.
func TestCanceledClientCancelsChaseJob(t *testing.T) {
	eng := New(Options{Workers: 1, JobTimeout: time.Minute})
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := eng.Analyze(ctx, api.AnalyzeRequest{
		Kind:        api.KindChase,
		Rules:       example1,
		MaxTriggers: maxRequestBudget,
		MaxFacts:    maxRequestBudget,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, err := eng.Analyze(context.Background(), api.AnalyzeRequest{Kind: api.KindChase, Rules: example1, MaxTriggers: 10}); err != nil {
		t.Fatalf("light job after client cancel: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v to free the worker", elapsed)
	}
}
