package chaseterm

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"chaseterm/internal/chase"
	"chaseterm/internal/core"
	"chaseterm/internal/logic"
	"chaseterm/internal/workload"
)

// decide runs AnalyzeDecide on the rules under variant v — all-instance
// unless opts attach a database — and returns the verdict.
func decide(ctx context.Context, rules *RuleSet, v Variant, opts ...RequestOption) (*Verdict, error) {
	rep, err := Analyzer{}.Analyze(ctx, NewRequest(AnalyzeDecide, rules, append(opts, WithVariant(v))...))
	if err != nil {
		return nil, err
	}
	return rep.Verdict, nil
}

// chaseOn runs AnalyzeChase over db and returns the chase result; on
// cancellation the partial result comes back with the context error.
func chaseOn(ctx context.Context, db *Database, rules *RuleSet, v Variant, opt ChaseOptions) (*ChaseResult, error) {
	rep, err := Analyzer{}.Analyze(ctx, NewRequest(AnalyzeChase, rules,
		WithDatabase(db), WithVariant(v), WithChaseBudgets(opt)))
	if rep == nil {
		return nil, err
	}
	return rep.Chase, err
}

// acyclicityOf runs AnalyzeAcyclicity and returns the report.
func acyclicityOf(t *testing.T, rules *RuleSet) AcyclicityReport {
	t.Helper()
	rep, err := Analyzer{}.Analyze(context.Background(), NewRequest(AnalyzeAcyclicity, rules))
	if err != nil {
		t.Fatal(err)
	}
	return *rep.Acyclicity
}

// taggedText renders a rule set in the input syntax with every predicate
// name suffixed by tag, the way the serving benchmark gives each request
// a fingerprint of its own.
func taggedText(rs *logic.RuleSet, tag string) string {
	retag := func(atoms []logic.Atom) []logic.Atom {
		out := make([]logic.Atom, len(atoms))
		for i, a := range atoms {
			out[i] = logic.Atom{Pred: a.Pred + tag, Args: a.Args}
		}
		return out
	}
	var b strings.Builder
	for _, r := range rs.Rules {
		b.WriteString(logic.NewTGD(retag(r.Body), retag(r.Head)).String())
		b.WriteString(".\n")
	}
	return b.String()
}

// ontologyCase draws a realistic materialization workload: a random
// 40-axiom DL-Lite TBox that the exact linear decider certifies
// semi-oblivious-terminating, over a 2000-fact ABox on 300 constants,
// resampled until the saturation derives at least 2,000 facts (a
// terminating chase can still be astronomically large; certification says
// "finite", not "small"). The draw is seeded, so every call returns the
// same case.
func ontologyCase(tb testing.TB) (*logic.RuleSet, []logic.Atom) {
	tb.Helper()
	rng := rand.New(rand.NewSource(26))
	for {
		rules := workload.RandomInclusionDependencies(rng, 12, 6, 40)
		res, err := core.DecideLinearContext(context.Background(), rules, core.VariantSemiOblivious, core.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		if res.Verdict.Answer != core.Terminating {
			continue
		}
		db := workload.RandomABox(rng, rules, 2000, 300)
		trial, err := chase.RunFromAtomsContext(context.Background(), db, rules, chase.SemiOblivious,
			chase.Options{MaxFacts: 120_000, MaxTriggers: 120_000})
		if err != nil {
			tb.Fatal(err)
		}
		if trial.Outcome == chase.Terminated && trial.Stats.FactsAdded >= 2_000 {
			return rules, db
		}
	}
}
