package portfolio

import (
	"context"
	"errors"
	"testing"

	"chaseterm/internal/chase"
	"chaseterm/internal/core"
	"chaseterm/internal/parse"
)

func TestRungNamesLadderOrder(t *testing.T) {
	want := []string{
		"rich-acyclicity", "weak-acyclicity", "joint-acyclicity",
		"mfa", "critical-saturation", "linear-exact", "guarded-exact",
	}
	got := RungNames()
	if len(got) != len(want) {
		t.Fatalf("rungs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rung[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRestrictedIsAnError: every entry point below the facade that takes
// a variant decides CT^o or CT^so only. The restricted chase is an error,
// not a semi-oblivious answer; the facade answers it through the CT^so
// transfer.
func TestRestrictedIsAnError(t *testing.T) {
	ctx := context.Background()
	lin := parse.MustParseRules(`p(X,Y) -> p(Y,Z).`)
	gd := parse.MustParseRules(`g(X,Y), gate(X) -> g(Y,Z).`)
	db := parse.MustParseFacts(`p(a,b). g(a,b). gate(a).`)
	for name, run := range map[string]func(chase.Variant) error{
		"core.DecideContext": func(v chase.Variant) error {
			_, err := core.DecideContext(ctx, lin, v, core.DecideOptions{})
			return err
		},
		"core.DecideSimpleLinear": func(v chase.Variant) error {
			_, err := core.DecideSimpleLinear(lin, v)
			return err
		},
		"core.DecideLinearContext": func(v chase.Variant) error {
			_, err := core.DecideLinearContext(ctx, lin, v, core.Options{})
			return err
		},
		"core.DecideLinearOnContext": func(v chase.Variant) error {
			_, err := core.DecideLinearOnContext(ctx, lin, db, v, core.Options{})
			return err
		},
		"core.DecideGuardedContext": func(v chase.Variant) error {
			_, err := core.DecideGuardedContext(ctx, gd, v, core.Options{})
			return err
		},
		"core.DecideGuardedOnContext": func(v chase.Variant) error {
			_, err := core.DecideGuardedOnContext(ctx, gd, db, v, core.Options{})
			return err
		},
		"portfolio.Run": func(v chase.Variant) error {
			_, err := Run(ctx, lin, v, core.DecideOptions{})
			return err
		},
	} {
		for _, v := range []chase.Variant{chase.Oblivious, chase.SemiOblivious} {
			if err := run(v); err != nil {
				t.Errorf("%s (%s): %v", name, v, err)
			}
		}
		if err := run(chase.Restricted); err == nil {
			t.Errorf("%s answered the restricted chase, want an error", name)
		}
	}
}

// TestLadderShortCircuit: a weakly-acyclic set must be decided by the
// first applicable positional rung and never reach anything deeper.
func TestLadderShortCircuit(t *testing.T) {
	rs := parse.MustParseRules(`professor(X) -> teaches(X,C). teaches(X,C) -> course(C).`)
	res, err := Run(context.Background(), rs, chase.SemiOblivious, core.DecideOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Terminating || res.DecidedBy != "weak-acyclicity" {
		t.Errorf("got %v decided by %q", res.Verdict, res.DecidedBy)
	}
	if len(res.Rungs) != 1 || res.Rungs[0].Rung != "weak-acyclicity" {
		t.Errorf("rung trace %v, want exactly the weak-acyclicity rung", res.Rungs)
	}
}

// TestObliviousLadderStartsAtRich: under the oblivious variant the
// rich-acyclicity rung is the applicable positional criterion.
func TestObliviousLadderStartsAtRich(t *testing.T) {
	rs := parse.MustParseRules(`p(X) -> q(X,Y).`)
	res, err := Run(context.Background(), rs, chase.Oblivious, core.DecideOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Terminating || res.DecidedBy != "rich-acyclicity" {
		t.Errorf("got %v decided by %q", res.Verdict, res.DecidedBy)
	}
}

// TestSLNonTerminatingOnPositionalRung: on constant-free simple-linear
// sets the positional criteria are exact (Theorem 1), so a failed check
// is already a sound NonTerminating — the exact tier must not run.
func TestSLNonTerminatingOnPositionalRung(t *testing.T) {
	rs := parse.MustParseRules(`p(X,Y) -> p(Y,Z).`)
	res, err := Run(context.Background(), rs, chase.SemiOblivious, core.DecideOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.NonTerminating || res.DecidedBy != "weak-acyclicity" {
		t.Errorf("got %v decided by %q", res.Verdict, res.DecidedBy)
	}
	if res.Evidence.Method != "weak-acyclicity(SL)" || res.Evidence.Witness == "" {
		t.Errorf("evidence %+v", res.Evidence)
	}
	if len(res.Rungs) != 1 {
		t.Errorf("rung trace %v", res.Rungs)
	}
}

// TestLadderFallsThroughToExact: a non-SL linear diverging set defeats
// every sound criterion (WA/JA fail, MFA sees a cyclic term), so the
// decision must come from an exact rung, and must be NonTerminating.
func TestLadderFallsThroughToExact(t *testing.T) {
	rs := parse.MustParseRules(`p(X,X) -> q(X,Y). q(X,Y) -> p(Y,Y).`)
	res, err := Run(context.Background(), rs, chase.SemiOblivious, core.DecideOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.NonTerminating || res.DecidedBy != "linear-exact" {
		t.Errorf("got %v decided by %q", res.Verdict, res.DecidedBy)
	}
	var names []string
	for _, r := range res.Rungs {
		names = append(names, r.Rung)
	}
	want := []string{"weak-acyclicity", "joint-acyclicity", "mfa", "linear-exact"}
	if len(names) != len(want) {
		t.Fatalf("rung trace %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("rung[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

// TestCancellationPropagates: cancelling the caller's context aborts
// the portfolio with ctx.Err, not a verdict.
func TestCancellationPropagates(t *testing.T) {
	rs := parse.MustParseRules(`p(X,X) -> q(X,Y).`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, rs, chase.SemiOblivious, core.DecideOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
