package chaseterm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"chaseterm/internal/core"
	"chaseterm/internal/logic"
	"chaseterm/internal/workload"
)

// ladderCorpus is one named input of the single-path pin, with the
// budgets its reference decision runs under.
type ladderCorpus struct {
	name  string
	rs    *logic.RuleSet
	opt   DecideOptions
	exact bool // linear or guarded: both sides must answer, and agree
}

// ladderCorpora rebuilds the inputs of the core package's
// cross-validation corpora (TestTheorem1SL, TestTheorem2Linear,
// TestTheorem4Guarded, TestConstantsCrossval, same generators and
// seeds), the servebench rule families, a few hand-written facade
// inputs, and the inputs of TestDecideDispatch and
// TestDecideGeneralUnknown.
func ladderCorpora() []ladderCorpus {
	var out []ladderCorpus
	add := func(name string, rs *logic.RuleSet) {
		out = append(out, ladderCorpus{name: name, rs: rs, exact: rs.Classify() != logic.ClassGeneral})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		add(fmt.Sprintf("theorem1-sl/%d", i), workload.RandomSL(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3}))
	}
	rng = rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		add(fmt.Sprintf("theorem2-linear/%d", i), workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 3, NumRules: 3, RepeatProb: 0.5}))
	}
	rng = rand.New(rand.NewSource(3))
	for i := 0; i < 250; i++ {
		add(fmt.Sprintf("theorem4-guarded/%d", i), workload.RandomGuarded(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3, MaxSideAtoms: 2}))
	}
	rng = rand.New(rand.NewSource(8))
	for i := 0; i < 150; i++ {
		add(fmt.Sprintf("constants-linear/%d", i), workload.RandomLinear(rng, workload.Config{
			NumPreds: 3, MaxArity: 2, NumRules: 3, RepeatProb: 0.3, ConstProb: 0.3,
		}))
	}
	for i := 0; i < 80; i++ {
		add(fmt.Sprintf("constants-guarded/%d", i), workload.RandomGuarded(rng, workload.Config{
			NumPreds: 2, MaxArity: 2, NumRules: 2, MaxSideAtoms: 1, ConstProb: 0.3,
		}))
	}
	for _, n := range []int{4, 16, 64, 256, 1024} {
		add(fmt.Sprintf("sl-family/%d-open", n), workload.SLFamily(n, false))
		add(fmt.Sprintf("sl-family/%d-closed", n), workload.SLFamily(n, true))
	}
	for w := 2; w <= 7; w++ {
		add(fmt.Sprintf("linear-family/%d", w), workload.LinearArityFamily(w))
	}
	for w := 1; w <= 4; w++ {
		add(fmt.Sprintf("guarded-family/%d", w), workload.GuardedArityFamily(w))
	}
	for _, in := range [][2]string{
		{"facade/example1", `person(X) -> hasFather(X,Y), person(Y).`},
		{"facade/dropped-frontier", `p(X,Y) -> p(X,Z).`},
		{"facade/gate", `gate(X,Y), live(X) -> out(Y,Z), live(Z).`},
		{"dispatch/general-wa", `e(X,Y), f(Y,Z) -> m(X,W).`},
		{"dispatch/general-saturating", `e(X,Y), f(Y,Z) -> f(Z,W).`},
	} {
		add(in[0], MustParseRules(in[1]).rs)
	}
	add("dispatch/sl", workload.Example2())
	add("dispatch/ontology", workload.OntologySL())
	add("dispatch/data-exchange", workload.DataExchange())
	add("dispatch/guarded", MustParseRules(`g(X,Y), gate(X) -> g(Y,Z).`).rs)
	out = append(out, ladderCorpus{
		name: "general-unknown",
		rs:   MustParseRules(`e(X,Y), f(Y,Z) -> e(Z,W), f(W,V).`).rs,
		opt:  DecideOptions{OracleMaxTriggers: 2000, OracleMaxFacts: 2000},
	})
	return out
}

// referenceVerdict is the direct class dispatch (core.DecideContext)
// for v, with the restricted variant answered through the CT^so
// transfer: Yes when the semi-oblivious chase terminates, Unknown
// otherwise.
func referenceVerdict(rs *logic.RuleSet, v Variant, opt DecideOptions) (Ternary, error) {
	cv := v
	if v == Restricted {
		cv = SemiOblivious
	}
	ref, err := core.DecideContext(context.Background(), rs, cv, opt.core())
	if err != nil {
		return Unknown, err
	}
	answer := ref.Answer
	if v == Restricted && answer != Yes {
		answer = Unknown
	}
	return answer, nil
}

// TestLadderMatchesDirectDispatch pins the single decision path: on
// every corpus input and variant, AnalyzeDecide (the portfolio ladder)
// never errors where the direct class dispatch answered, gives the same
// Terminates on the linear and guarded inputs, where both are exact,
// never contradicts a decisive reference verdict on the general ones,
// and names its deciding rung on every decisive verdict.
func TestLadderMatchesDirectDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation corpora")
	}
	for _, c := range ladderCorpora() {
		rules := &RuleSet{rs: c.rs}
		for _, v := range []Variant{Oblivious, SemiOblivious, Restricted} {
			want, refErr := referenceVerdict(c.rs, v, c.opt)
			got, err := decide(context.Background(), rules, v, WithDecideBudgets(c.opt))
			if err != nil {
				if refErr == nil {
					t.Errorf("%s (%s): ladder failed where the direct dispatch answered %v: %v\n%s", c.name, v, want, err, c.rs)
				}
				continue
			}
			if got.Terminates != Unknown && got.DecidedBy == "" {
				t.Errorf("%s (%s): decisive verdict %v by %s names no rung", c.name, v, got.Terminates, got.Method)
			}
			if refErr != nil {
				continue
			}
			if c.exact && got.Terminates != want {
				t.Errorf("%s (%s): ladder %v (%s, by %s), direct %v\n%s", c.name, v, got.Terminates, got.Method, got.DecidedBy, want, c.rs)
			}
			if !c.exact && want != Unknown && got.Terminates != want {
				t.Errorf("%s (%s): ladder %v contradicts the direct %v\n%s", c.name, v, got.Terminates, want, c.rs)
			}
		}
	}
}
