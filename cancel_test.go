package chaseterm

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRunChaseContextCancelMidRun: a canceled context stops a divergent
// AnalyzeChase run within the engine's check interval instead of
// letting it run to its (huge) budget, and the partial result is still
// inspectable.
func TestRunChaseContextCancelMidRun(t *testing.T) {
	rules := MustParseRules(`person(X) -> hasFather(X,Y), person(Y).`)
	db := MustParseDatabase(`person(bob).`)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := chaseOn(ctx, db, rules, SemiOblivious, ChaseOptions{
		MaxTriggers: 50_000_000,
		MaxFacts:    50_000_000,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if res == nil || res.Outcome != Canceled {
		t.Fatalf("got %+v, want a partial result with Outcome Canceled", res)
	}
	if res.Stats.TriggersApplied >= 50_000_000 {
		t.Fatal("chase ran to its budget despite cancellation")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

// TestDecideTerminationContextExpired: an expired deadline surfaces as
// DeadlineExceeded from the all-instance AnalyzeDecide under every
// variant, even where the ladder's first rung is a cheap positional
// check.
func TestDecideTerminationContextExpired(t *testing.T) {
	rules := MustParseRules(`person(X) -> hasFather(X,Y), person(Y).`)
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	for _, v := range []Variant{Oblivious, SemiOblivious, Restricted} {
		if _, err := decide(ctx, rules, v); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%v: got %v, want context.DeadlineExceeded", v, err)
		}
	}
}

// TestDecideTerminationOnDatabaseContextCanceled covers the
// fixed-database AnalyzeDecide.
func TestDecideTerminationOnDatabaseContextCanceled(t *testing.T) {
	rules := MustParseRules(`p(X,X) -> p(X,Y).`)
	db := MustParseDatabase(`p(a,a).`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := decide(ctx, rules, SemiOblivious, WithDatabase(db)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestContextVariantsMatchPlainCalls: a plain background context (nil
// Done channel, so the cancellation polls compile out) and a live,
// never-canceled one must give the same decision and chase run.
func TestContextVariantsMatchPlainCalls(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	rules := MustParseRules(`person(X) -> hasFather(X,Y), person(Y).`)
	plain, err1 := decide(context.Background(), rules, SemiOblivious)
	ctxed, err2 := decide(live, rules, SemiOblivious)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors %v / %v", err1, err2)
	}
	if plain.Terminates != ctxed.Terminates || plain.Method != ctxed.Method || plain.DecidedBy != ctxed.DecidedBy {
		t.Fatalf("plain %+v vs context %+v", plain, ctxed)
	}

	db := CriticalDatabase(rules)
	r1, err1 := chaseOn(context.Background(), db, rules, SemiOblivious, ChaseOptions{MaxTriggers: 100})
	r2, err2 := chaseOn(live, CriticalDatabase(rules), rules, SemiOblivious, ChaseOptions{MaxTriggers: 100})
	if err1 != nil || err2 != nil {
		t.Fatalf("errors %v / %v", err1, err2)
	}
	if r1.Outcome != r2.Outcome || r1.Stats != r2.Stats {
		t.Fatalf("plain %+v vs context %+v", r1.Stats, r2.Stats)
	}
}

// TestChaseOptionsNegativeBudgets: negative budgets mean "default", not
// "fail instantly" (regression for the withDefaults clamp).
func TestChaseOptionsNegativeBudgets(t *testing.T) {
	rules := MustParseRules(`p(X) -> q(X).`)
	db := MustParseDatabase(`p(a).`)
	res, err := chaseOn(context.Background(), db, rules, SemiOblivious, ChaseOptions{
		MaxTriggers: -1, MaxFacts: -1, MaxDepth: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Terminated || res.Stats.TriggersApplied != 1 {
		t.Fatalf("got %v after %d triggers, want Terminated after 1",
			res.Outcome, res.Stats.TriggersApplied)
	}
}
