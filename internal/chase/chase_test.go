package chase

import (
	"context"
	"strings"
	"testing"

	"chaseterm/internal/instance"
	"chaseterm/internal/parse"
)

func run(t *testing.T, facts, rules string, v Variant, opt Options) *Result {
	t.Helper()
	db := parse.MustParseFacts(facts)
	rs := parse.MustParseRules(rules)
	res, err := RunFromAtomsContext(context.Background(), db, rs, v, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExample1 reproduces the paper's Example 1: person(Bob) with
// person(X) -> hasFather(X,Y), person(Y) runs forever under every variant.
func TestExample1NonTermination(t *testing.T) {
	for _, v := range []Variant{Oblivious, SemiOblivious, Restricted} {
		res := run(t, `person(bob).`, `person(X) -> hasFather(X,Y), person(Y).`,
			v, Options{MaxTriggers: 50})
		if res.Outcome == Terminated {
			t.Errorf("%v: chase terminated, expected divergence", v)
		}
		// The derivation is exactly the chain of Example 1: after k
		// triggers there are 1+2k facts.
		if res.Stats.FactsAdded != 2*res.Stats.TriggersApplied {
			t.Errorf("%v: %d facts from %d triggers, want 2 per trigger",
				v, res.Stats.FactsAdded, res.Stats.TriggersApplied)
		}
	}
}

// TestExample2 reproduces Example 2: D = {p(a,b)}, p(X,Y) -> ∃Z p(Y,Z).
// There is a single chase sequence and it does not terminate.
func TestExample2NonTermination(t *testing.T) {
	for _, v := range []Variant{Oblivious, SemiOblivious} {
		res := run(t, `p(a,b).`, `p(X,Y) -> p(Y,Z).`, v, Options{MaxTriggers: 40})
		if res.Outcome == Terminated {
			t.Errorf("%v: terminated unexpectedly", v)
		}
		// I_i = I_{i-1} ∪ {p(z_{i-1}, z_i)}: exactly one new fact per step.
		if res.Stats.FactsAdded != res.Stats.TriggersApplied {
			t.Errorf("%v: %d facts from %d triggers", v, res.Stats.FactsAdded, res.Stats.TriggersApplied)
		}
	}
}

// TestObliviousVsSemiOblivious separates the variants on
// p(X,Y) -> ∃Z p(X,Z): the oblivious chase diverges (every new atom is a
// new homomorphism), the semi-oblivious terminates (the frontier {X} never
// changes).
func TestObliviousVsSemiOblivious(t *testing.T) {
	rules := `p(X,Y) -> p(X,Z).`
	facts := `p(a,b).`
	o := run(t, facts, rules, Oblivious, Options{MaxTriggers: 30})
	if o.Outcome == Terminated {
		t.Error("oblivious: expected divergence")
	}
	so := run(t, facts, rules, SemiOblivious, Options{})
	if so.Outcome != Terminated {
		t.Error("semi-oblivious: expected termination")
	}
	// Result: p(a,b) plus p(a, f(a)).
	if so.Instance.Size() != 2 {
		t.Errorf("semi-oblivious result size: %d, want 2", so.Instance.Size())
	}
}

// TestRestrictedSatisfaction: the restricted chase does not fire a trigger
// whose head is already satisfied.
func TestRestrictedSatisfaction(t *testing.T) {
	// hasFather is already total on the database: nothing to do.
	rules := `person(X) -> hasFather(X,Y).`
	facts := `person(bob). hasFather(bob,carl).`
	r := run(t, facts, rules, Restricted, Options{})
	if r.Outcome != Terminated {
		t.Fatal("restricted: expected termination")
	}
	if r.Stats.TriggersApplied != 0 || r.Stats.TriggersSatisfied != 1 {
		t.Errorf("restricted stats: applied %d satisfied %d", r.Stats.TriggersApplied, r.Stats.TriggersSatisfied)
	}
	// The oblivious chase fires regardless and invents a redundant null.
	o := run(t, facts, rules, Oblivious, Options{})
	if o.Outcome != Terminated || o.Stats.TriggersApplied != 1 {
		t.Errorf("oblivious applied %d", o.Stats.TriggersApplied)
	}
	if o.Instance.Size() != 3 {
		t.Errorf("oblivious size: %d", o.Instance.Size())
	}
}

// TestRestrictedTerminatesWhereObliviousDiverges: on Example 2 with a
// reflexive database the restricted chase stops immediately.
func TestRestrictedReflexive(t *testing.T) {
	res := run(t, `p(a,a).`, `p(X,Y) -> p(Y,Z).`, Restricted, Options{})
	if res.Outcome != Terminated {
		t.Fatal("restricted on p(a,a): expected termination")
	}
	if res.Stats.TriggersApplied != 0 {
		t.Errorf("applied %d triggers, want 0 (head satisfied by p(a,a) itself)", res.Stats.TriggersApplied)
	}
}

// TestSkolemIdentity: semi-oblivious homomorphisms agreeing on the frontier
// produce identical facts.
func TestSkolemIdentity(t *testing.T) {
	rules := `p(X,Y) -> q(X,Z).`
	facts := `p(a,b). p(a,c).` // same frontier X=a twice
	res := run(t, facts, rules, SemiOblivious, Options{})
	if res.Outcome != Terminated {
		t.Fatal("expected termination")
	}
	if res.Stats.TriggersApplied != 1 {
		t.Errorf("applied %d, want 1 (frontier dedup)", res.Stats.TriggersApplied)
	}
	o := run(t, facts, rules, Oblivious, Options{})
	if o.Stats.TriggersApplied != 2 {
		t.Errorf("oblivious applied %d, want 2", o.Stats.TriggersApplied)
	}
}

// TestSharedExistential: head atoms sharing an existential variable share
// the invented value.
func TestSharedExistential(t *testing.T) {
	res := run(t, `person(bob).`, `person(X) -> hasFather(X,Y), father(Y).`,
		SemiOblivious, Options{})
	if res.Outcome != Terminated {
		t.Fatal("expected termination")
	}
	strsAll := strings.Join(res.Instance.Strings(), ";")
	if !strings.Contains(strsAll, "hasFather(bob,f0_Y(bob))") || !strings.Contains(strsAll, "father(f0_Y(bob))") {
		t.Errorf("shared existential broken: %s", strsAll)
	}
}

// TestFairness: with two independent divergent rules, FIFO scheduling must
// interleave them — both predicates keep growing.
func TestFairness(t *testing.T) {
	rules := `p(X) -> p(Y).
q(X) -> q(Y).`
	res := run(t, `p(a). q(a).`, rules, Oblivious, Options{MaxTriggers: 100})
	if res.Outcome == Terminated {
		t.Fatal("expected divergence")
	}
	in := res.Instance
	pid, _ := in.LookupPred("p")
	qid, _ := in.LookupPred("q")
	np, nq := len(in.ByPred(pid)), len(in.ByPred(qid))
	if np < 40 || nq < 40 {
		t.Errorf("unfair scheduling: p=%d q=%d", np, nq)
	}
}

// TestIsModel: a terminated chase result is a model of the rules.
func TestIsModel(t *testing.T) {
	rules := `person(X) -> hasFather(X,Y).
hasFather(X,Y) -> person(X).`
	db := parse.MustParseFacts(`person(bob). person(alice).`)
	rs := parse.MustParseRules(rules)
	for _, v := range []Variant{Oblivious, SemiOblivious, Restricted} {
		res, err := RunFromAtomsContext(context.Background(), db, rs, v, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != Terminated {
			t.Fatalf("%v: expected termination", v)
		}
		violation, err := IsModel(res.Instance, rs)
		if err != nil {
			t.Fatal(err)
		}
		if violation != "" {
			t.Errorf("%v: result is not a model: %s", v, violation)
		}
	}
}

// TestIsModelDetectsViolation: IsModel must flag an instance that does not
// satisfy the rules.
func TestIsModelDetectsViolation(t *testing.T) {
	rs := parse.MustParseRules(`person(X) -> hasFather(X,Y).`)
	in, err := instance.FromAtoms(parse.MustParseFacts(`person(bob).`))
	if err != nil {
		t.Fatal(err)
	}
	violation, err := IsModel(in, rs)
	if err != nil {
		t.Fatal(err)
	}
	if violation == "" {
		t.Error("missing father not detected")
	}
}

// TestNoopTriggers: the oblivious chase counts applications that add
// nothing (the "superfluous" work the paper's Section 2 contrasts with the
// semi-oblivious chase).
func TestNoopTriggers(t *testing.T) {
	rules := `p(X,Y) -> q(Y).
q(Y) -> r(Y).`
	facts := `p(a,b). p(c,b).` // both derive q(b)
	res := run(t, facts, rules, Oblivious, Options{})
	if res.Outcome != Terminated {
		t.Fatal("expected termination")
	}
	if res.Stats.TriggersNoop != 1 {
		t.Errorf("noop triggers: %d, want 1", res.Stats.TriggersNoop)
	}
}

// TestDepthBudget: MaxDepth cuts off runs that nest invented values.
func TestDepthBudget(t *testing.T) {
	res := run(t, `p(a,b).`, `p(X,Y) -> p(Y,Z).`, SemiOblivious, Options{MaxDepth: 5, MaxTriggers: 100000})
	if res.Outcome != DepthExceeded {
		t.Fatalf("outcome: %v", res.Outcome)
	}
	if res.Stats.MaxTermDepth != 6 {
		t.Errorf("max depth: %d", res.Stats.MaxTermDepth)
	}
}

// TestCyclicSkolemStop: the MFA stopping rule fires on self-nesting Skolem
// functions.
func TestCyclicSkolemStop(t *testing.T) {
	res := run(t, `p(a,b).`, `p(X,Y) -> p(Y,Z).`, SemiOblivious,
		Options{StopOnCyclicSkolem: true, MaxTriggers: 100000})
	if res.Outcome != CyclicTerm {
		t.Fatalf("outcome: %v", res.Outcome)
	}
	// A terminating set never triggers the rule.
	res = run(t, `p(a,b).`, `p(X,Y) -> q(Y,Z).`, SemiOblivious,
		Options{StopOnCyclicSkolem: true})
	if res.Outcome != Terminated {
		t.Fatalf("outcome: %v", res.Outcome)
	}
}

// TestParseVariant round-trips the variant names.
func TestParseVariant(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Variant
	}{{"o", Oblivious}, {"oblivious", Oblivious}, {"so", SemiOblivious},
		{"skolem", SemiOblivious}, {"r", Restricted}, {"standard", Restricted}} {
		got, err := ParseVariant(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseVariant(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseVariant("nope"); err == nil {
		t.Error("unknown variant accepted")
	}
}

// TestDeterminism: two runs over the same input produce identical fact
// sets and statistics.
func TestDeterminism(t *testing.T) {
	rules := `p(X,Y) -> q(Y,Z).
q(X,Y) -> r(X).
r(X) -> s(X,X).`
	facts := `p(a,b). p(b,c). p(c,a).`
	r1 := run(t, facts, rules, SemiOblivious, Options{})
	r2 := run(t, facts, rules, SemiOblivious, Options{})
	s1, s2 := r1.Instance.Strings(), r2.Instance.Strings()
	if len(s1) != len(s2) {
		t.Fatalf("sizes differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("fact %d differs: %s vs %s", i, s1[i], s2[i])
		}
	}
	if r1.Stats != r2.Stats {
		t.Errorf("stats differ: %+v vs %+v", r1.Stats, r2.Stats)
	}
}
