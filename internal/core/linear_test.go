package core

import (
	"context"
	"testing"

	"chaseterm/internal/chase"
	"chaseterm/internal/critical"
	"chaseterm/internal/logic"
	"chaseterm/internal/parse"
)

// linearCase is a rule set with known CT^o / CT^so membership.
type linearCase struct {
	name string
	src  string
	o    Answer // expected CT^o answer
	so   Answer // expected CT^so answer
}

// The ground-truth table below is hand-derived; the paper's Example 1 and
// Example 2 appear first. Several cases witness the separations the paper
// is organized around:
//
//   - oSepSo: CT^o ⊊ CT^so (fresh nulls per homomorphism vs per frontier);
//   - waFailsTerm: a non-simple linear set that is NOT weakly acyclic yet
//     terminating — the reason Theorem 2 needs critical-acyclicity.
var linearCases = []linearCase{
	{
		name: "example1-person-hasFather",
		src:  `person(X) -> hasFather(X,Y), person(Y).`,
		o:    NonTerminating,
		so:   NonTerminating,
	},
	{
		name: "example2-p-cycle",
		src:  `p(X,Y) -> p(Y,Z).`,
		o:    NonTerminating,
		so:   NonTerminating,
	},
	{
		name: "oSepSo-dropped-frontier",
		src:  `p(X,Y) -> p(X,Z).`,
		o:    NonTerminating,
		so:   Terminating,
	},
	{
		name: "oSepSo-reversed",
		src:  `p(X,Y) -> p(Z,Y).`,
		o:    NonTerminating,
		so:   Terminating,
	},
	{
		name: "oSepSo-empty-frontier",
		src:  `r(X) -> r(Y).`,
		o:    NonTerminating,
		so:   Terminating,
	},
	{
		name: "waFailsTerm-repeated-body-var",
		src:  `p(X,X) -> p(X,Z).`,
		o:    Terminating,
		so:   Terminating,
	},
	{
		name: "terminating-chain",
		src: `a(X) -> b(X,Y).
b(X,Y) -> c(Y).`,
		o:  Terminating,
		so: Terminating,
	},
	{
		name: "two-rule-cycle",
		src: `p(X,Y) -> q(Y,Z).
q(X,Y) -> p(X,Y).`,
		o:  NonTerminating,
		so: NonTerminating,
	},
	{
		name: "two-rule-cycle-frontier-dropped",
		src: `p(X,Y) -> q(Y,Z).
q(X,Y) -> p(X,X).`,
		// q(Y,Z) invents Z; p(X,X) needs q's two args equal: q(✶,z) never
		// has them equal, so only q(✶,✶) -> p(✶,✶) fires. Terminating for
		// so. For o: the q-rule keeps firing on new q-atoms? q(✶,z1) ->
		// p(✶,✶) (exists, no new atom); p-rule refires only on new
		// p-atoms. No new p-atoms, so terminating for o as well.
		o:  Terminating,
		so: Terminating,
	},
	{
		name: "constant-guarded-flow",
		src: `s(X) -> t(0,X).
t(0,X) -> s(Y).`,
		// t(0,X) matches only atoms with constant 0 in position 1; s(Y)
		// invents Y with empty frontier for so (terminates after one
		// firing); for o each new t-atom refires and each fresh s-null
		// creates a new t-atom: diverges.
		o:  NonTerminating,
		so: Terminating,
	},
	{
		name: "full-rules-only",
		src: `p(X,Y) -> q(Y,X).
q(X,Y) -> p(X,Y).`,
		o:  Terminating,
		so: Terminating,
	},
	{
		name: "self-loop-with-constant",
		src:  `p(X) -> p(Y).`,
		o:    NonTerminating,
		so:   Terminating,
	},
}

func TestDecideLinearKnownCases(t *testing.T) {
	for _, tc := range linearCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rs := parse.MustParseRules(tc.src)
			resO, err := DecideLinearContext(context.Background(), rs, chase.Oblivious, Options{})
			if err != nil {
				t.Fatalf("DecideLinearContext(context.Background(), o): %v", err)
			}
			if resO.Verdict.Answer != tc.o {
				t.Errorf("CT^o: got %v, want %v (witness: %s)", resO.Verdict.Answer, tc.o, resO.Verdict.Witness)
			}
			resSO, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{})
			if err != nil {
				t.Fatalf("DecideLinearContext(context.Background(), so): %v", err)
			}
			if resSO.Verdict.Answer != tc.so {
				t.Errorf("CT^so: got %v, want %v (witness: %s)", resSO.Verdict.Answer, tc.so, resSO.Verdict.Witness)
			}
		})
	}
}

// TestDecideLinearContainment checks CT^o ⊆ CT^so on the known cases: an
// oblivious-terminating set is semi-oblivious-terminating.
func TestDecideLinearContainment(t *testing.T) {
	for _, tc := range linearCases {
		if tc.o == Terminating && tc.so != Terminating {
			t.Errorf("%s: ground-truth table violates CT^o ⊆ CT^so", tc.name)
		}
	}
}

// TestDecideLinearAuxTransform checks the o↔so reduction: CT^o(Σ) must
// coincide with CT^so(aux(Σ)) (experiment E12's core claim).
func TestDecideLinearAuxTransform(t *testing.T) {
	for _, tc := range linearCases {
		rs := parse.MustParseRules(tc.src)
		direct, err := DecideLinearContext(context.Background(), rs, chase.Oblivious, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		aux := critical.AuxTransform(rs)
		viaAux, err := DecideLinearContext(context.Background(), aux, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("%s: aux: %v", tc.name, err)
		}
		if direct.Verdict.Answer != viaAux.Verdict.Answer {
			t.Errorf("%s: direct o-decision %v != so-decision on aux %v",
				tc.name, direct.Verdict.Answer, viaAux.Verdict.Answer)
		}
	}
}

func TestDecideLinearRejectsNonLinear(t *testing.T) {
	rs := parse.MustParseRules(`p(X), q(X) -> r(X).`)
	if _, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{}); err == nil {
		t.Fatal("expected an error for a non-linear rule")
	}
}

func TestDecideGuardedKnownCases(t *testing.T) {
	cases := []struct {
		name string
		src  string
		so   Answer
	}{
		{
			// The side-atom gate: aux(✶) exists but aux never holds of
			// invented values, so the recursion stops after two steps even
			// though the Skolem term f nests itself (MFA would be
			// inconclusive here; the cloud decider is exact).
			name: "side-atom-gate",
			src:  `g(X,Y), gate(X) -> g(Y,Z).`,
			so:   Terminating,
		},
		{
			name: "example2-guarded-view",
			src:  `g(X,Y) -> g(Y,Z).`,
			so:   NonTerminating,
		},
		{
			// The gate propagates: gate(Y) re-arms the side atom for the
			// next level, so the recursion never stops.
			name: "side-atom-rearmed",
			src:  `g(X,Y), gate(X) -> g(Y,Z), gate(Y).`,
			so:   NonTerminating,
		},
		{
			name: "guarded-terminating-pyramid",
			src: `e(X,Y) -> v(X), v(Y).
v(X) -> w(X).`,
			so: Terminating,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rs := parse.MustParseRules(tc.src)
			if c := rs.Classify(); c > logic.ClassGuarded {
				t.Fatalf("test case is not guarded: %v", c)
			}
			res, err := DecideGuardedContext(context.Background(), rs, chase.SemiOblivious, Options{})
			if err != nil {
				t.Fatalf("DecideGuarded: %v", err)
			}
			if res.Answer != tc.so {
				t.Errorf("CT^so: got %v, want %v (witness: %s)", res.Answer, tc.so, res.Witness)
			}
		})
	}
}

// TestGuardedAgreesWithLinear: on linear inputs both deciders must agree
// (linear ⊆ guarded).
func TestGuardedAgreesWithLinear(t *testing.T) {
	for _, tc := range linearCases {
		rs := parse.MustParseRules(tc.src)
		lin, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		gd, err := DecideGuardedContext(context.Background(), rs, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("%s: guarded: %v", tc.name, err)
		}
		if lin.Verdict.Answer != gd.Answer {
			t.Errorf("%s: linear decider says %v, guarded decider says %v",
				tc.name, lin.Verdict.Answer, gd.Answer)
		}
	}
}
