package critical

import (
	"context"
	"strings"
	"testing"

	"chaseterm/internal/chase"
	"chaseterm/internal/parse"
)

func TestCriticalFactsConstantFree(t *testing.T) {
	rs := parse.MustParseRules(`p(X,Y) -> q(Y).`)
	facts := Facts(rs)
	// p/2 over {✶}: 1 atom; q/1 over {✶}: 1 atom.
	if len(facts) != 2 {
		t.Fatalf("facts: %d, want 2: %v", len(facts), facts)
	}
	for _, f := range facts {
		for _, a := range f.Args {
			if a != Star {
				t.Errorf("unexpected constant in %s", f)
			}
		}
	}
}

func TestCriticalFactsWithConstants(t *testing.T) {
	rs := parse.MustParseRules(`p(X,0) -> q(1).`)
	// Constants: ✶, 0, 1 — p/2 has 9 tuples, q/1 has 3.
	facts := Facts(rs)
	if len(facts) != 12 {
		t.Fatalf("facts: %d, want 12", len(facts))
	}
	in, err := Instance(rs)
	if err != nil {
		t.Fatal(err)
	}
	if in.Size() != 12 {
		t.Errorf("instance size: %d", in.Size())
	}
}

func TestCriticalZeroAry(t *testing.T) {
	rs := parse.MustParseRules(`start -> goal.`)
	facts := Facts(rs)
	if len(facts) != 2 {
		t.Fatalf("facts: %d, want 2 (start, goal)", len(facts))
	}
}

func TestAuxTransform(t *testing.T) {
	rs := parse.MustParseRules(`p(X,Y), q(Y) -> r(Y,Z).`)
	aux := AuxTransform(rs)
	if len(aux.Rules) != 1 {
		t.Fatal("rule count changed")
	}
	r := aux.Rules[0]
	if len(r.Head) != 2 {
		t.Fatalf("head atoms: %d", len(r.Head))
	}
	auxAtom := r.Head[1]
	if !IsAuxPredicate(auxAtom.Pred) {
		t.Errorf("aux predicate name: %s", auxAtom.Pred)
	}
	if len(auxAtom.Args) != 2 { // X and Y
		t.Errorf("aux arity: %d", len(auxAtom.Args))
	}
	// After the transform every body variable is frontier.
	if len(r.Frontier()) != len(r.BodyVariables()) {
		t.Errorf("frontier %v != body vars %v", r.Frontier(), r.BodyVariables())
	}
	if err := aux.Validate(); err != nil {
		t.Errorf("aux set invalid: %v", err)
	}
}

// TestAuxTransformPreservesClasses: linearity and guardedness survive.
func TestAuxTransformPreservesClasses(t *testing.T) {
	lin := parse.MustParseRules(`p(X,Y) -> q(Y,Z).`)
	if got := AuxTransform(lin).Classify().String(); got != "simple-linear" {
		t.Errorf("SL not preserved: %s", got)
	}
	g := parse.MustParseRules(`p(X,Y), q(Y) -> r(Y,Z).`)
	if got := AuxTransform(g).Classify().String(); got != "guarded" {
		t.Errorf("G not preserved: %s", got)
	}
}

// TestAuxTriggerCorrespondence: the oblivious chase of Σ and the
// semi-oblivious chase of aux(Σ) apply the same number of triggers on the
// same database, and the non-aux facts coincide.
func TestAuxTriggerCorrespondence(t *testing.T) {
	srcs := []string{
		`p(X,Y) -> q(X,Z).`,
		`p(X,Y) -> q(Y,X).`,
		`p(X,Y) -> q(X,Z).
q(X,Y) -> r(X).`,
	}
	db := `p(a,b). p(a,c). p(b,b).`
	for _, src := range srcs {
		rs := parse.MustParseRules(src)
		aux := AuxTransform(rs)
		o, err := chase.RunFromAtomsContext(context.Background(), parse.MustParseFacts(db), rs, chase.Oblivious, chase.Options{MaxTriggers: 500})
		if err != nil {
			t.Fatal(err)
		}
		so, err := chase.RunFromAtomsContext(context.Background(), parse.MustParseFacts(db), aux, chase.SemiOblivious, chase.Options{MaxTriggers: 500})
		if err != nil {
			t.Fatal(err)
		}
		if o.Outcome != so.Outcome {
			t.Errorf("%q: outcomes differ: %v vs %v", src, o.Outcome, so.Outcome)
		}
		if o.Stats.TriggersApplied != so.Stats.TriggersApplied {
			t.Errorf("%q: triggers differ: %d vs %d", src, o.Stats.TriggersApplied, so.Stats.TriggersApplied)
		}
		// Fact counts: aux run has exactly one extra atom per trigger
		// (modulo duplicate aux atoms, impossible here since triggers are
		// per full homomorphism).
		oN := o.Instance.Size()
		var soN int
		for _, s := range so.Instance.Strings() {
			if !strings.Contains(s, AuxPrefix) {
				soN++
			}
		}
		if oN != soN {
			t.Errorf("%q: non-aux fact counts differ: %d vs %d", src, oN, soN)
		}
	}
}

// TestOracleMarnette: the critical-instance oracle separates terminating
// from non-terminating sets on the paper's examples.
func TestOracleMarnette(t *testing.T) {
	diverges := parse.MustParseRules(`p(X,Y) -> p(Y,Z).`)
	res, err := OracleContext(context.Background(), diverges, chase.SemiOblivious, chase.Options{MaxTriggers: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == chase.Terminated {
		t.Error("diverging set saturated")
	}
	stops := parse.MustParseRules(`p(X,Y) -> p(X,Z).`)
	res, err = OracleContext(context.Background(), stops, chase.SemiOblivious, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != chase.Terminated {
		t.Error("terminating set did not saturate")
	}
}

func TestMFA(t *testing.T) {
	// Weakly-acyclic-style set: no cyclic term, saturates.
	r, _, err := MFAContext(context.Background(), parse.MustParseRules(`p(X,Y) -> q(Y,Z).`), chase.Options{})
	if err != nil || r != MFATerminating {
		t.Errorf("MFA: %v %v", r, err)
	}
	// Example 2: cyclic term appears.
	r, _, err = MFAContext(context.Background(), parse.MustParseRules(`p(X,Y) -> p(Y,Z).`), chase.Options{MaxTriggers: 1000})
	if err != nil || r != MFACyclic {
		t.Errorf("MFA: %v %v", r, err)
	}
	// The guarded gate: MFA is inconclusive (cyclic term) although the
	// chase terminates — the incompleteness the cloud decider fixes.
	r, _, err = MFAContext(context.Background(), parse.MustParseRules(`g(X,Y), gate(X) -> g(Y,Z).`), chase.Options{MaxTriggers: 1000})
	if err != nil || r != MFACyclic {
		t.Errorf("MFA on gate: %v %v", r, err)
	}
}

func TestStarIsUnparseable(t *testing.T) {
	if _, err := parse.ParseRules(`p(` + string(Star) + `) -> q(X).`); err == nil {
		t.Error("the critical constant must not be expressible in the input syntax")
	}
}
