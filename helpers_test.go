package chaseterm

import (
	"context"
	"strings"
	"testing"

	"chaseterm/internal/logic"
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
