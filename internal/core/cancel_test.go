package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"chaseterm/internal/chase"
	"chaseterm/internal/logic"
	"chaseterm/internal/parse"
)

// One representative rule set per dispatch path of DecideContext.
var cancelSets = map[string]string{
	"simple-linear": `person(X) -> hasFather(X,Y), person(Y).`,
	"linear":        `p(X,X) -> p(X,Y).`,
	"guarded":       `p(X,Y), q(Y) -> r(Y,Z).`,
	// Not weakly acyclic (special cycle p.1 -> s.1 => p.1) and not
	// guarded, so DecideContext reaches the bounded critical-instance oracle.
	"general": `p(X), q(Y) -> s(X,Y). s(X,Y) -> p(Z), t(X,Z).`,
}

// TestDecideContextPreCanceled: an already-dead context fails every
// dispatch path with the context's error instead of a verdict.
func TestDecideContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, src := range cancelSets {
		rs := parse.MustParseRules(src)
		for _, v := range []chase.Variant{chase.Oblivious, chase.SemiOblivious} {
			if _, err := DecideContext(ctx, rs, v, DecideOptions{}); !errors.Is(err, context.Canceled) {
				t.Errorf("%s/%v: got %v, want context.Canceled", name, v, err)
			}
		}
	}
}

// TestDecideLinearContextCanceled: the shape worklist honors the context.
func TestDecideLinearContextCanceled(t *testing.T) {
	rs := parse.MustParseRules(cancelSets["linear"])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecideLinearContext(ctx, rs, chase.SemiOblivious, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestDecideGuardedContextCanceled: the node-type fixpoint honors the
// context.
func TestDecideGuardedContextCanceled(t *testing.T) {
	rs := parse.MustParseRules(cancelSets["guarded"])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecideGuardedContext(ctx, rs, chase.SemiOblivious, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestDecideOnContextPreCanceledEmptyDB: the fixed-database deciders
// honor a dead context even when the seed database is empty and their
// worklist/fixpoint loops would never iterate.
func TestDecideOnContextPreCanceledEmptyDB(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	linear := parse.MustParseRules(cancelSets["linear"])
	if _, err := DecideLinearOnContext(ctx, linear, []logic.Atom{}, chase.SemiOblivious, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("linear empty db: got %v, want context.Canceled", err)
	}
	guarded := parse.MustParseRules(cancelSets["guarded"])
	if _, err := DecideGuardedOnContext(ctx, guarded, []logic.Atom{}, chase.SemiOblivious, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("guarded empty db: got %v, want context.Canceled", err)
	}
}

// TestDecideGeneralCancelMidOracle cancels the fallback critical-instance
// chase mid-run: the decision must return the context error well before
// the (deliberately huge) oracle budget is consumed.
func TestDecideGeneralCancelMidOracle(t *testing.T) {
	rs := parse.MustParseRules(cancelSets["general"])
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := DecideContext(ctx, rs, chase.SemiOblivious, DecideOptions{
		OracleMaxTriggers: 10_000_000,
		OracleMaxFacts:    10_000_000,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

// TestDecideContextBackgroundIdentical: the context plumbing must not
// change any verdict: a background context (nil Done channel, polls
// compiled out) and a live, never-canceled one must agree.
func TestDecideContextBackgroundIdentical(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, src := range cancelSets {
		rs := parse.MustParseRules(src)
		plain, err1 := DecideContext(context.Background(), rs, chase.SemiOblivious, DecideOptions{})
		ctxed, err2 := DecideContext(live, rs, chase.SemiOblivious, DecideOptions{})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: errors %v / %v", name, err1, err2)
		}
		if plain.Answer != ctxed.Answer || plain.Method != ctxed.Method {
			t.Errorf("%s: background context gave (%v,%s) but a live one gave (%v,%s)",
				name, plain.Answer, plain.Method, ctxed.Answer, ctxed.Method)
		}
	}
}

// TestNegativeBudgetsClamped is the regression test for the withDefaults
// bug: negative search budgets used to slip past the == 0 default check
// and fail every decision instantly with a budget error.
func TestNegativeBudgetsClamped(t *testing.T) {
	linear := parse.MustParseRules(cancelSets["linear"])
	if res, err := DecideLinearContext(context.Background(), linear, chase.SemiOblivious, Options{MaxShapes: -1}); err != nil {
		t.Errorf("linear with MaxShapes -1: %v, want a verdict", err)
	} else if res.Verdict.ShapeCount == 0 {
		t.Error("linear with MaxShapes -1 explored no shapes")
	}
	guarded := parse.MustParseRules(cancelSets["guarded"])
	if _, err := DecideGuardedContext(context.Background(), guarded, chase.SemiOblivious, Options{MaxNodeTypes: -1}); err != nil {
		t.Errorf("guarded with MaxNodeTypes -1: %v, want a verdict", err)
	}
	dopt := DecideOptions{OracleMaxTriggers: -3, OracleMaxFacts: -3}.WithDefaults()
	if dopt.OracleMaxTriggers != 200_000 || dopt.OracleMaxFacts != 200_000 {
		t.Errorf("DecideOptions negative oracle budgets not clamped: %+v", dopt)
	}
	oopt := Options{MaxShapes: -9, MaxNodeTypes: -9}.withDefaults()
	if oopt.MaxShapes != DefaultMaxShapes || oopt.MaxNodeTypes != DefaultMaxNodeTypes {
		t.Errorf("Options negative caps not clamped: %+v", oopt)
	}
}
