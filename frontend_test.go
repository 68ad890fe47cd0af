package chaseterm

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"chaseterm/internal/acyclicity"
	"chaseterm/internal/workload"
)

// TestSharedRuleSetConcurrentAnalyze: one parsed rule set serves several
// concurrent analyses (the Analyzer is safe for concurrent use, and a
// RuleSet is read-only), and every goroutine gets the same report. Run
// under -race it checks the rule set's memoized analyses.
func TestSharedRuleSetConcurrentAnalyze(t *testing.T) {
	rules := MustParseRules(`p(X,Y) -> q(X,Y,Z). q(X,Y,Z) -> p(Z,X). q(X,Y,Z), r(X) -> p(Y,Z).`)
	const n = 4
	reps := make([]*Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = Analyzer{}.Analyze(context.Background(),
				NewRequest(AnalyzeDecide, rules, WithAcyclicity()))
		}(i)
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if rep.Fingerprint != reps[0].Fingerprint || !reflect.DeepEqual(untimed(rep.Verdict), untimed(reps[0].Verdict)) ||
			!reflect.DeepEqual(rep.Acyclicity, reps[0].Acyclicity) {
			t.Errorf("goroutine %d: report differs:\n%+v\n%+v", i, rep, reps[0])
		}
	}
}

// TestFrontEndAllocs pins the allocations of the front end of a fresh
// decide request on a tagged SLFamily(256): parsing, the fingerprint, the
// classification block (Classify, MaxArity, Predicates) and the
// positional criteria. The bounds sit just above the measured counts,
// also under -race.
func TestFrontEndAllocs(t *testing.T) {
	src := taggedText(workload.SLFamily(256, true), "_7")
	rules := MustParseRules(src)
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"parse", 2400, func() { MustParseRules(src) }},
		{"fingerprint", 32, func() { (&RuleSet{rs: rules.rs}).Fingerprint() }},
		{"classification", 16, func() { rules.Classify(); rules.MaxArity(); rules.Predicates() }},
		{"weak-acyclicity", 80, func() { acyclicity.IsWeaklyAcyclic(rules.rs) }},
		{"rich-acyclicity", 84, func() { acyclicity.IsRichlyAcyclic(rules.rs) }},
	} {
		if got := testing.AllocsPerRun(10, tc.run); got > tc.max {
			t.Errorf("%s: %.0f allocations per call, want at most %.0f", tc.name, got, tc.max)
		}
	}
}
