package chase

import (
	"context"
	"strings"
	"testing"

	"chaseterm/internal/logic"
	"chaseterm/internal/parse"
)

// TestJoinOnInventedValues: multi-atom bodies must join on nulls invented
// earlier in the run.
func TestJoinOnInventedValues(t *testing.T) {
	rules := parse.MustParseRules(`
a(X) -> r(X,Y), s(Y).
r(X,Y), s(Y) -> hit(X).
`)
	res := mustRun(t, `a(c).`, rules, SemiOblivious)
	if res.Outcome != Terminated {
		t.Fatalf("outcome: %v", res.Outcome)
	}
	all := strings.Join(res.Instance.Strings(), ";")
	if !strings.Contains(all, "hit(c)") {
		t.Errorf("join over invented value failed: %s", all)
	}
}

// TestHeadConstants: constants in heads are instantiated as themselves.
func TestHeadConstants(t *testing.T) {
	rules := parse.MustParseRules(`trigger(X) -> flag(on), level(X,0).`)
	res := mustRun(t, `trigger(t).`, rules, Restricted)
	all := strings.Join(res.Instance.Strings(), ";")
	if !strings.Contains(all, "flag(on)") || !strings.Contains(all, "level(t,0)") {
		t.Errorf("head constants: %s", all)
	}
}

// TestZeroAryChase: 0-ary predicates flow through all variants.
func TestZeroAryChase(t *testing.T) {
	rules := parse.MustParseRules(`
start -> phase1.
phase1 -> phase2.
phase2, start -> done.
`)
	for _, v := range []Variant{Oblivious, SemiOblivious, Restricted} {
		res := mustRun(t, `start.`, rules, v)
		if res.Outcome != Terminated {
			t.Fatalf("%v: %v", v, res.Outcome)
		}
		if res.Instance.Size() != 4 {
			t.Errorf("%v: %d facts", v, res.Instance.Size())
		}
	}
}

// TestBodyConstantFilter: body constants restrict matching.
func TestBodyConstantFilter(t *testing.T) {
	rules := parse.MustParseRules(`level(X,0) -> base(X).`)
	res := mustRun(t, `level(a,0). level(b,1).`, rules, SemiOblivious)
	all := strings.Join(res.Instance.Strings(), ";")
	if !strings.Contains(all, "base(a)") || strings.Contains(all, "base(b)") {
		t.Errorf("constant filtering: %s", all)
	}
}

// TestSelfJoinBody: one predicate twice in a body with shared variables.
func TestSelfJoinBody(t *testing.T) {
	rules := parse.MustParseRules(`e(X,Y), e(Y,Z) -> path2(X,Z).`)
	res := mustRun(t, `e(a,b). e(b,c). e(c,a).`, rules, SemiOblivious)
	pid, _ := res.Instance.LookupPred("path2")
	if len(res.Instance.ByPred(pid)) != 3 {
		t.Errorf("paths: %d", len(res.Instance.ByPred(pid)))
	}
}

// TestRuleWithSameAtomTwice: a body repeating an identical atom is just a
// redundant conjunct.
func TestRuleWithSameAtomTwice(t *testing.T) {
	rules := parse.MustParseRules(`p(X), p(X) -> q(X).`)
	res := mustRun(t, `p(a).`, rules, SemiOblivious)
	if res.Stats.TriggersApplied != 1 {
		t.Errorf("triggers: %d", res.Stats.TriggersApplied)
	}
}

// TestEmptyDatabase: no facts, nothing to do, still a valid terminated run.
func TestEmptyDatabase(t *testing.T) {
	rules := parse.MustParseRules(`p(X) -> q(X).`)
	res, err := RunFromAtomsContext(context.Background(), nil, rules, SemiOblivious, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Terminated || res.Instance.Size() != 0 {
		t.Errorf("outcome %v size %d", res.Outcome, res.Instance.Size())
	}
}

// TestDatabaseOutsideSchema: facts over predicates no rule mentions are
// carried through untouched.
func TestDatabaseOutsideSchema(t *testing.T) {
	rules := parse.MustParseRules(`p(X) -> q(X).`)
	res := mustRun(t, `p(a). unrelated(x,y,z).`, rules, Restricted)
	if res.Outcome != Terminated || res.Instance.Size() != 3 {
		t.Errorf("outcome %v size %d", res.Outcome, res.Instance.Size())
	}
}

// TestMaxFactsBudget: the fact budget stops a run even when the trigger
// budget is generous.
func TestMaxFactsBudget(t *testing.T) {
	rules := parse.MustParseRules(`p(X) -> p(Y).`)
	res := mustRun(t, `p(a).`, rules, Oblivious, Options{MaxFacts: 10, MaxTriggers: 100000})
	if res.Outcome != BudgetExceeded {
		t.Fatalf("outcome: %v", res.Outcome)
	}
	if res.Instance.Size() > 11 {
		t.Errorf("size: %d", res.Instance.Size())
	}
}

func mustRun(t *testing.T, facts string, rules *logic.RuleSet, v Variant, opts ...Options) *Result {
	t.Helper()
	opt := Options{}
	if len(opts) > 0 {
		opt = opts[0]
	}
	res, err := RunFromAtomsContext(context.Background(), parse.MustParseFacts(facts), rules, v, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
