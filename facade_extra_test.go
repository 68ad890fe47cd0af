package chaseterm

import (
	"context"
	"testing"
)

func TestCoreFacts(t *testing.T) {
	rules := MustParseRules(`emp(N, DN) -> works(E, D), empName(E, N), deptName(D, DN).
dept(DN, MN) -> deptName(D, DN), mgr(D, M), empName(M, MN).
mgr(D, M) -> works(M, D).`)
	db := MustParseDatabase(`emp(carol, toys). dept(toys, carol).`)
	res, err := chaseOn(context.Background(), db, rules, Restricted, ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Terminated {
		t.Fatal("chase did not terminate")
	}
	full := len(res.Facts())
	core, removed := res.CoreFacts()
	if removed == 0 {
		t.Fatalf("expected folding: carol's employment row duplicates her manager facts (full=%d)", full)
	}
	if len(core)+removed != full {
		t.Errorf("core=%d removed=%d full=%d", len(core), removed, full)
	}
}

func TestCoreFactsNoFold(t *testing.T) {
	rules := MustParseRules(`p(X) -> q(X,Y).`)
	db := MustParseDatabase(`p(a).`)
	res, err := chaseOn(context.Background(), db, rules, Restricted, ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	core, removed := res.CoreFacts()
	if removed != 0 || len(core) != 2 {
		t.Errorf("core=%v removed=%d", core, removed)
	}
}

func TestExploreRestrictedSequencesFacade(t *testing.T) {
	rules := MustParseRules(`r(X,Y) -> r(Y,Z).
r(X,Y) -> r(Y,X).`)
	db := MustParseDatabase(`r(a,b).`)
	res, err := ExploreRestrictedSequences(db, rules, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("no terminating sequence found: %+v", res)
	}
	if len(res.Trace) != 1 || res.Trace[0] != 1 {
		t.Errorf("trace: %v", res.Trace)
	}
	// FIFO (fair) restricted run on the same input diverges — the pair of
	// results is the ∀/∃-sequence separation at the public API level.
	run, err := chaseOn(context.Background(), db, rules, Restricted, ChaseOptions{MaxTriggers: 500})
	if err != nil {
		t.Fatal(err)
	}
	if run.Outcome == Terminated {
		t.Error("FIFO restricted run should diverge on this input")
	}
}

func TestDecideTerminationOnDatabase(t *testing.T) {
	rules := MustParseRules(`p(X,Y) -> p(Y,Z).`)
	feeds := MustParseDatabase(`p(a,b).`)
	starved := MustParseDatabase(`q(a).`)

	v, err := decide(context.Background(), rules, SemiOblivious, WithDatabase(feeds))
	if err != nil {
		t.Fatal(err)
	}
	if v.Terminates != No || v.Method != "critical-weak-acyclicity(fixed-db)" {
		t.Errorf("feeds: %v via %s", v.Terminates, v.Method)
	}
	v, err = decide(context.Background(), rules, SemiOblivious, WithDatabase(starved))
	if err != nil {
		t.Fatal(err)
	}
	if v.Terminates != Yes {
		t.Errorf("starved: %v", v.Terminates)
	}
	// Oblivious variant on the starved database also terminates.
	v, err = decide(context.Background(), rules, Oblivious, WithDatabase(starved))
	if err != nil {
		t.Fatal(err)
	}
	if v.Terminates != Yes {
		t.Errorf("starved/o: %v", v.Terminates)
	}
	// Restricted: transfers the Yes.
	v, err = decide(context.Background(), rules, Restricted, WithDatabase(starved))
	if err != nil {
		t.Fatal(err)
	}
	if v.Terminates != Yes {
		t.Errorf("starved/r: %v", v.Terminates)
	}
	// Guarded dispatch.
	g := MustParseRules(`g(X,Y), gate(X) -> g(Y,Z), gate(Y).`)
	armed := MustParseDatabase(`g(a,a). gate(a).`)
	v, err = decide(context.Background(), g, SemiOblivious, WithDatabase(armed))
	if err != nil {
		t.Fatal(err)
	}
	if v.Terminates != No || v.Method != "guarded-forest(fixed-db)" {
		t.Errorf("armed: %v via %s", v.Terminates, v.Method)
	}
	// General fallback: saturating non-guarded set.
	gen := MustParseRules(`e(X,Y), f(Y,Z) -> m(X,Z).`)
	v, err = decide(context.Background(), gen, SemiOblivious, WithDatabase(MustParseDatabase(`e(a,b). f(b,c).`)))
	if err != nil {
		t.Fatal(err)
	}
	if v.Terminates != Yes || v.Method != "saturation(fixed-db)" {
		t.Errorf("general: %v via %s", v.Terminates, v.Method)
	}
}

func TestCheckAcyclicity(t *testing.T) {
	// RA fails, WA holds: the dropped-frontier rule.
	rep := acyclicityOf(t, MustParseRules(`p(X,Y) -> p(X,Z).`))
	if rep.RichlyAcyclic || !rep.WeaklyAcyclic || !rep.JointlyAcyclic {
		t.Errorf("report: %+v", rep)
	}
	if rep.RAWitness == "" {
		t.Error("missing RA witness")
	}
	if rep.WAWitness != "" {
		t.Error("unexpected WA witness on acyclic set")
	}
	// All fail on Example 2.
	rep = acyclicityOf(t, MustParseRules(`p(X,Y) -> p(Y,Z).`))
	if rep.RichlyAcyclic || rep.WeaklyAcyclic || rep.JointlyAcyclic {
		t.Errorf("report: %+v", rep)
	}
	// JA holds where WA fails.
	rep = acyclicityOf(t, MustParseRules("p(X) -> q(X,Y).\nq(X,Y), q(Y,X) -> p(Y)."))
	if rep.WeaklyAcyclic || !rep.JointlyAcyclic {
		t.Errorf("report: %+v", rep)
	}
}

// TestDecideSimpleLinearFastPathMethod: on constant-free simple-linear
// sets the weak-acyclicity rung decides both ways (Theorem 1 makes its
// failed check a non-termination proof, marked "(SL)"); with constants
// in the rules a failed check proves nothing and the shape decider
// takes over.
func TestDecideSimpleLinearFastPathMethod(t *testing.T) {
	cases := []struct {
		src, method, decidedBy string
		want                   Ternary
	}{
		{`p(X,Y) -> q(Y,Z).`, "weak-acyclicity", "weak-acyclicity", Yes},
		{`p(X,Y) -> p(Y,Z).`, "weak-acyclicity(SL)", "weak-acyclicity", No},
		{`p(X,0) -> q(X,Z).`, "weak-acyclicity", "weak-acyclicity", Yes},
		{`p(X,Y) -> p(Y,Z), q(0).`, "critical-weak-acyclicity", "linear-exact", No},
	}
	for _, tc := range cases {
		v, err := decide(context.Background(), MustParseRules(tc.src), SemiOblivious)
		if err != nil {
			t.Fatal(err)
		}
		if v.Terminates != tc.want || v.Method != tc.method || v.DecidedBy != tc.decidedBy {
			t.Errorf("%s: %v via %s decided by %s, want %v via %s decided by %s",
				tc.src, v.Terminates, v.Method, v.DecidedBy, tc.want, tc.method, tc.decidedBy)
		}
	}
}
