package acyclicity

import (
	"testing"

	"chaseterm/internal/logic"
	"chaseterm/internal/parse"
)

type acase struct {
	name string
	src  string
	wa   bool // weakly acyclic?
	ra   bool // richly acyclic?
}

// Hand-derived ground truth. RA ⊆ WA must hold throughout.
var cases = []acase{
	{
		name: "example1",
		src:  `person(X) -> hasFather(X,Y), person(Y).`,
		wa:   false, ra: false,
	},
	{
		name: "example2",
		src:  `p(X,Y) -> p(Y,Z).`,
		wa:   false, ra: false,
	},
	{
		// The frontier drops Y: no dangerous cycle in the dependency graph
		// (special edge p[1] => p[2] but p[2] has no out-edges), but the
		// extended graph adds p[2] => p[2] (Y is a body variable).
		name: "wa-not-ra",
		src:  `p(X,Y) -> p(X,Z).`,
		wa:   true, ra: false,
	},
	{
		name: "chain",
		src: `a(X) -> b(X,Y).
b(X,Y) -> c(Y).`,
		wa: true, ra: true,
	},
	{
		name: "full-cycle-no-existential",
		src: `p(X,Y) -> q(Y,X).
q(X,Y) -> p(X,Y).`,
		wa: true, ra: true,
	},
	{
		// Weak acyclicity is positional and blind to the repeated body
		// variable: it wrongly fears p(X,X) -> p(X,Z) (the chase actually
		// terminates — the paper's reason for critical-acyclicity).
		name: "repeated-var-fools-wa",
		src:  `p(X,X) -> p(X,Z).`,
		wa:   false, ra: false,
	},
	{
		name: "two-step-dangerous-cycle",
		src: `p(X) -> q(X,Y).
q(X,Y) -> p(Y).`,
		wa: false, ra: false,
	},
	{
		name: "empty-frontier",
		src:  `r(X) -> r(Y).`,
		wa:   true, ra: false,
	},
	{
		name: "multi-head-shared-existential",
		src:  `person(X) -> hasFather(X,Y), male(Y).`,
		wa:   true, ra: true,
	},
}

func TestWeakRichAcyclicity(t *testing.T) {
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rs := parse.MustParseRules(tc.src)
			wa, waWitness := IsWeaklyAcyclic(rs)
			if wa != tc.wa {
				t.Errorf("WA: got %v, want %v (witness %v)", wa, tc.wa, waWitness)
			}
			ra, raWitness := IsRichlyAcyclic(rs)
			if ra != tc.ra {
				t.Errorf("RA: got %v, want %v (witness %v)", ra, tc.ra, raWitness)
			}
			if !wa && waWitness == nil {
				t.Error("WA: no witness for negative answer")
			}
			if !ra && raWitness == nil {
				t.Error("RA: no witness for negative answer")
			}
		})
	}
}

// TestRAImpliesWA: rich acyclicity is strictly stronger.
func TestRAImpliesWA(t *testing.T) {
	for _, tc := range cases {
		if tc.ra && !tc.wa {
			t.Errorf("%s: ground truth violates RA ⊆ WA", tc.name)
		}
		rs := parse.MustParseRules(tc.src)
		ra, _ := IsRichlyAcyclic(rs)
		wa, _ := IsWeaklyAcyclic(rs)
		if ra && !wa {
			t.Errorf("%s: implementation violates RA ⊆ WA", tc.name)
		}
	}
}

func TestWitnessRendering(t *testing.T) {
	rs := parse.MustParseRules(`p(X,Y) -> p(Y,Z).`)
	ok, w := IsWeaklyAcyclic(rs)
	if ok {
		t.Fatal("expected dangerous cycle")
	}
	s := w.String()
	if s == "" || w.Mode != Weak {
		t.Errorf("witness: %q mode %v", s, w.Mode)
	}
}

func TestDependencyGraphShape(t *testing.T) {
	// person(X) -> hasFather(X,Y), person(Y): positions person[1],
	// hasFather[1], hasFather[2].
	rs := parse.MustParseRules(`person(X) -> hasFather(X,Y), person(Y).`)
	dg := Build(rs, Weak)
	if n := dg.G.Len(); n != 3 {
		t.Fatalf("positions: %d", n)
	}
	// X: person[1] -> hasFather[1] regular; person[1] => hasFather[2],
	// person[1] => person[1] special.
	edges := dg.G.Edges()
	regular, special := 0, 0
	for _, e := range edges {
		if e.Special {
			special++
		} else {
			regular++
		}
	}
	if regular != 1 || special != 2 {
		t.Errorf("edges: %d regular, %d special (want 1, 2)", regular, special)
	}
}

func TestRichGraphAddsNonFrontierSources(t *testing.T) {
	rs := parse.MustParseRules(`p(X,Y) -> p(X,Z).`)
	weak := Build(rs, Weak)
	rich := Build(rs, Rich)
	if len(rich.G.Edges()) <= len(weak.G.Edges()) {
		t.Errorf("extended graph not larger: %d vs %d", len(rich.G.Edges()), len(weak.G.Edges()))
	}
}

// TestWitnessDeterministic: the graph's edges go in body order, so the
// dangerous cycle reported for a set is the same on every call. On a
// simple-linear set this text is the served non-termination witness,
// and verdict stores persist it.
func TestWitnessDeterministic(t *testing.T) {
	const src = `p(X,Y) -> q(X,Y,Z). q(X,Y,Z) -> p(Z,X). q(X,Y,Z) -> p(Y,Z).`
	for _, tc := range []struct {
		check func(*logic.RuleSet) (bool, *Witness)
		want  string
	}{
		{IsWeaklyAcyclic, "dangerous cycle (weak): p[1] -> q[3] -> p[1]"},
		{IsRichlyAcyclic, "dangerous cycle (rich): p[1] -> q[3] -> p[1]"},
	} {
		rs := parse.MustParseRules(src)
		for i := 0; i < 100; i++ {
			ok, w := tc.check(rs)
			if ok || w.String() != tc.want {
				t.Fatalf("call %d: %v, %v; want %q", i, ok, w, tc.want)
			}
		}
	}
}
