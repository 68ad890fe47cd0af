package portfolio

import (
	"context"
	"math/rand"
	"testing"

	"chaseterm/internal/acyclicity"
	"chaseterm/internal/core"
	"chaseterm/internal/logic"
	"chaseterm/internal/workload"
)

// crossvalOpts keeps the saturation rungs cheap: the random workloads
// are tiny, so every terminating critical chase saturates far below
// this budget.
var crossvalOpts = Options{OracleMaxTriggers: 8_000, OracleMaxFacts: 8_000}

// fromAnswer maps an exact decider's answer into the portfolio model.
func fromAnswer(a core.Answer) Verdict {
	switch a {
	case core.Terminating:
		return Terminating
	case core.NonTerminating:
		return NonTerminating
	default:
		return Undecided
	}
}

// assertAgrees runs the portfolio and checks its verdict against the
// direct exact decider's. The portfolio may decide by a cheaper sound
// rung, but the answer must be the same — a disagreement means either
// an unsound rung or a broken scheduler. It also enforces the ladder
// economy: a weakly-acyclic set (under so) must be decided by the
// weak-acyclicity rung without ever invoking an exact decider.
func assertAgrees(t *testing.T, i int, rs *logic.RuleSet, v core.ChaseVariant, direct core.Answer) {
	t.Helper()
	res, err := Run(context.Background(), rs, v, crossvalOpts)
	if err != nil {
		t.Fatalf("case %d: portfolio: %v\n%s", i, err, rs)
	}
	if want := fromAnswer(direct); res.Verdict != want {
		t.Errorf("case %d (%v): portfolio=%v (by %s) direct=%v:\n%s",
			i, v, res.Verdict, res.DecidedBy, want, rs)
	}
	wa, _ := acyclicity.IsWeaklyAcyclic(rs)
	if v == core.VariantSemiOblivious && wa {
		if res.DecidedBy != "weak-acyclicity" {
			t.Errorf("case %d: WA set decided by %q, want weak-acyclicity:\n%s", i, res.DecidedBy, rs)
		}
		for _, r := range res.Rungs {
			if r.Rung == "linear-exact" || r.Rung == "guarded-exact" {
				t.Errorf("case %d: WA set reached exact rung %q:\n%s", i, r.Rung, rs)
			}
		}
	}
}

// TestCrossvalLinear: on random linear sets (with repeated variables
// and constants, so mostly outside the exact domain of the positional
// criteria) the portfolio must agree with the direct linear decider for
// both variants.
func TestCrossvalLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation")
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		rs := workload.RandomLinear(rng, workload.Config{
			NumPreds: 3, MaxArity: 3, NumRules: 3, RepeatProb: 0.5, ConstProb: 0.2,
		})
		so, err := core.DecideLinearContext(context.Background(), rs, core.VariantSemiOblivious, core.Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		assertAgrees(t, i, rs, core.VariantSemiOblivious, so.Verdict.Answer)
		o, err := core.DecideLinearContext(context.Background(), rs, core.VariantOblivious, core.Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		assertAgrees(t, i, rs, core.VariantOblivious, o.Verdict.Answer)
	}
}

// TestCrossvalGuarded: on random guarded sets the portfolio must agree
// with the direct guarded decider (semi-oblivious variant).
func TestCrossvalGuarded(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation")
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		rs := workload.RandomGuarded(rng, workload.Config{
			NumPreds: 3, MaxArity: 2, NumRules: 3, MaxSideAtoms: 2,
		})
		so, err := core.DecideGuardedContext(context.Background(), rs, core.Options{})
		if err != nil {
			t.Fatalf("case %d: %v\n%s", i, err, rs)
		}
		assertAgrees(t, i, rs, core.VariantSemiOblivious, so.Answer)
	}
}
