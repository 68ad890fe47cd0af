package core

import (
	"context"
	"math/rand"
	"testing"

	"chaseterm/internal/acyclicity"
	"chaseterm/internal/chase"
	"chaseterm/internal/critical"
	"chaseterm/internal/logic"
	"chaseterm/internal/parse"
	"chaseterm/internal/workload"
)

// oracleBudget is the bounded-chase budget used for empirical ground
// truth. The random workloads are tiny (≤ 4 rules, arity ≤ 3), so every
// terminating critical chase saturates far below it; a budget hit is
// treated as empirical non-termination.
var oracleBudget = chase.Options{MaxTriggers: 8_000, MaxFacts: 8_000}

// empirical returns the bounded-oracle answer for the given variant.
func empirical(t *testing.T, rs *logic.RuleSet, v chase.Variant) Answer {
	t.Helper()
	res, err := critical.OracleContext(context.Background(), rs, v, oracleBudget)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if res.Outcome == chase.Terminated {
		return Terminating
	}
	return NonTerminating
}

// TestTheorem1SL reproduces Theorem 1 on random constant-free simple-linear
// sets: CT^so ∩ SL = WA ∩ SL and CT^o ∩ SL = RA ∩ SL, with the bounded
// chase oracle as the third, independent arbiter.
func TestTheorem1SL(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		rs := workload.RandomSL(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3})
		if rs.Classify() > logic.ClassSimpleLinear {
			t.Fatalf("case %d: generator produced non-SL set:\n%s", i, rs)
		}
		wa, _ := acyclicity.IsWeaklyAcyclic(rs)
		ra, _ := acyclicity.IsRichlyAcyclic(rs)

		so, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		o, err := DecideLinearContext(context.Background(), rs, chase.Oblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if (so.Verdict.Answer == Terminating) != wa {
			t.Errorf("case %d: WA=%v but critical-WA says %v:\n%s", i, wa, so.Verdict.Answer, rs)
		}
		if (o.Verdict.Answer == Terminating) != ra {
			t.Errorf("case %d: RA=%v but critical-RA says %v:\n%s", i, ra, o.Verdict.Answer, rs)
		}
		if got := empirical(t, rs, chase.SemiOblivious); got != so.Verdict.Answer {
			t.Errorf("case %d: so-oracle=%v decider=%v:\n%s", i, got, so.Verdict.Answer, rs)
		}
		if got := empirical(t, rs, chase.Oblivious); got != o.Verdict.Answer {
			t.Errorf("case %d: o-oracle=%v decider=%v:\n%s", i, got, o.Verdict.Answer, rs)
		}
	}
}

// TestTheorem2Linear reproduces Theorem 2 on random linear sets with
// repeated body variables (mostly outside SL), where plain WA/RA are no
// longer exact: the critical deciders must match the bounded oracle, and
// WA/RA must stay sound (acyclic ⇒ terminating) though incomplete.
func TestTheorem2Linear(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation")
	}
	rng := rand.New(rand.NewSource(2))
	waIncomplete, raIncomplete := 0, 0
	for i := 0; i < 400; i++ {
		rs := workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 3, NumRules: 3, RepeatProb: 0.5})
		so, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		o, err := DecideLinearContext(context.Background(), rs, chase.Oblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := empirical(t, rs, chase.SemiOblivious); got != so.Verdict.Answer {
			t.Errorf("case %d: so-oracle=%v decider=%v:\n%s", i, got, so.Verdict.Answer, rs)
		}
		if got := empirical(t, rs, chase.Oblivious); got != o.Verdict.Answer {
			t.Errorf("case %d: o-oracle=%v decider=%v:\n%s", i, got, o.Verdict.Answer, rs)
		}
		// Soundness of the positional criteria.
		if wa, _ := acyclicity.IsWeaklyAcyclic(rs); wa && so.Verdict.Answer != Terminating {
			t.Errorf("case %d: WA holds but set diverges:\n%s", i, rs)
		} else if !wa && so.Verdict.Answer == Terminating {
			waIncomplete++
		}
		if ra, _ := acyclicity.IsRichlyAcyclic(rs); ra && o.Verdict.Answer != Terminating {
			t.Errorf("case %d: RA holds but set diverges:\n%s", i, rs)
		} else if !ra && o.Verdict.Answer == Terminating {
			raIncomplete++
		}
	}
	// The generator must actually produce witnesses of WA/RA incompleteness
	// (otherwise this test exercises nothing beyond Theorem 1).
	if waIncomplete == 0 || raIncomplete == 0 {
		t.Errorf("no incompleteness witnesses generated (wa=%d ra=%d): weaken the workload", waIncomplete, raIncomplete)
	}
}

// TestTheorem4Guarded reproduces the decidability core of Theorem 4 on
// random guarded sets: the cloud decider must agree with the bounded
// oracle for both variants (the oblivious one via the aux transformation).
func TestTheorem4Guarded(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 250; i++ {
		rs := workload.RandomGuarded(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3, MaxSideAtoms: 2})
		if rs.Classify() > logic.ClassGuarded {
			t.Fatalf("case %d: generator produced non-guarded set:\n%s", i, rs)
		}
		so, err := DecideGuardedContext(context.Background(), rs, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v\n%s", i, err, rs)
		}
		if got := empirical(t, rs, chase.SemiOblivious); got != so.Answer {
			t.Errorf("case %d: so-oracle=%v decider=%v:\n%s", i, got, so.Answer, rs)
		}
		o, err := DecideGuardedContext(context.Background(), rs, chase.Oblivious, Options{})
		if err != nil {
			t.Fatalf("case %d (aux): %v\n%s", i, err, rs)
		}
		if got := empirical(t, rs, chase.Oblivious); got != o.Answer {
			t.Errorf("case %d: o-oracle=%v decider=%v:\n%s", i, got, o.Answer, rs)
		}
		// Containment CT^o ⊆ CT^so.
		if o.Answer == Terminating && so.Answer != Terminating {
			t.Errorf("case %d: violates CT^o ⊆ CT^so:\n%s", i, rs)
		}
	}
}

// TestTheorem4GuardedArity3 stresses the guarded decider with arity-3
// guards and larger heads — more null slots per node, exercising the
// multi-group canonicalization and deeper clouds.
func TestTheorem4GuardedArity3(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		rs := workload.RandomGuarded(rng, workload.Config{
			NumPreds: 3, MaxArity: 3, NumRules: 2, MaxSideAtoms: 2, MaxHeadAtoms: 2,
		})
		so, err := DecideGuardedContext(context.Background(), rs, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v\n%s", i, err, rs)
		}
		if got := empirical(t, rs, chase.SemiOblivious); got != so.Answer {
			t.Errorf("case %d: so-oracle=%v decider=%v:\n%s", i, got, so.Answer, rs)
		}
	}
}

// TestConstantsCrossval validates the deciders on rule sets containing the
// constants 0/1 (the paper's "standard database" ingredients): the critical
// instance then ranges over {✶,0,1} and the shape/cloud machinery must
// track constant marks exactly.
func TestConstantsCrossval(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation")
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 150; i++ {
		lin := workload.RandomLinear(rng, workload.Config{
			NumPreds: 3, MaxArity: 2, NumRules: 3, RepeatProb: 0.3, ConstProb: 0.3,
		})
		dec, err := DecideLinearContext(context.Background(), lin, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := empirical(t, lin, chase.SemiOblivious); got != dec.Verdict.Answer {
			t.Errorf("case %d (linear): oracle=%v decider=%v:\n%s", i, got, dec.Verdict.Answer, lin)
		}
	}
	for i := 0; i < 80; i++ {
		g := workload.RandomGuarded(rng, workload.Config{
			NumPreds: 2, MaxArity: 2, NumRules: 2, MaxSideAtoms: 1, ConstProb: 0.3,
		})
		dec, err := DecideGuardedContext(context.Background(), g, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := empirical(t, g, chase.SemiOblivious); got != dec.Answer {
			t.Errorf("case %d (guarded): oracle=%v decider=%v:\n%s", i, got, dec.Answer, g)
		}
	}
}

// TestGuardedAgreesWithLinearRandom: on random linear sets the guarded and
// linear deciders are both exact, hence must agree.
func TestGuardedAgreesWithLinearRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation")
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		rs := workload.RandomLinear(rng, workload.Config{NumPreds: 2, MaxArity: 2, NumRules: 2, RepeatProb: 0.4})
		lin, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		gd, err := DecideGuardedContext(context.Background(), rs, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if lin.Verdict.Answer != gd.Answer {
			t.Errorf("case %d: linear=%v guarded=%v:\n%s", i, lin.Verdict.Answer, gd.Answer, rs)
		}
	}
}

// TestAuxEquivalenceLinearRandom is experiment E12 at test scale: the
// direct critical-RA decision equals the critical-WA decision of aux(Σ).
func TestAuxEquivalenceLinearRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation")
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		rs := workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3, RepeatProb: 0.3})
		direct, err := DecideLinearContext(context.Background(), rs, chase.Oblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		viaAux, err := DecideLinearContext(context.Background(), critical.AuxTransform(rs), chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if direct.Verdict.Answer != viaAux.Verdict.Answer {
			t.Errorf("case %d: direct=%v aux=%v:\n%s", i, direct.Verdict.Answer, viaAux.Verdict.Answer, rs)
		}
	}
}

// TestCTContainmentRandom: CT^o ⊆ CT^so on random linear sets (the paper
// recalls CT^o = CT^o_∀ = CT^o_∃ ⊆ CT^so).
func TestCTContainmentRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation")
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		rs := workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3})
		o, err := DecideLinearContext(context.Background(), rs, chase.Oblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		so, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if o.Verdict.Answer == Terminating && so.Verdict.Answer != Terminating {
			t.Errorf("case %d: CT^o ⊆ CT^so violated:\n%s", i, rs)
		}
	}
}

// TestDecideDispatch exercises the front door across classes.
func TestDecideDispatch(t *testing.T) {
	cases := []struct {
		name   string
		rs     *logic.RuleSet
		want   Answer
		method string
	}{
		{"sl", workload.Example2(), NonTerminating, "weak-acyclicity(SL)"},
		{"ontology", workload.OntologySL(), Terminating, "weak-acyclicity(SL)"},
		{"data-exchange-is-sl", workload.DataExchange(), Terminating, "weak-acyclicity(SL)"},
		{"guarded", mustRules(t, `g(X,Y), gate(X) -> g(Y,Z).`), Terminating, "guarded-forest"},
		// Non-guarded (no body atom holds X, Y and Z), weakly acyclic.
		{"general-wa", mustRules(t, `e(X,Y), f(Y,Z) -> m(X,W).`), Terminating, "weak-acyclicity"},
		// Non-guarded and NOT weakly acyclic (special self-loop f[2]⇒f[2]),
		// yet the critical chase saturates: the e-side atom requires Y to
		// be a constant, cutting the recursion after two levels.
		{"general-saturating", mustRules(t, `e(X,Y), f(Y,Z) -> f(Z,W).`), Terminating, "critical-saturation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := DecideContext(context.Background(), tc.rs, chase.SemiOblivious, DecideOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if v.Answer != tc.want {
				t.Errorf("answer: %v, want %v", v.Answer, tc.want)
			}
			if v.Method != tc.method {
				t.Errorf("method: %s, want %s", v.Method, tc.method)
			}
		})
	}
}

// TestDecideGeneralUnknown: a genuinely diverging non-guarded set must come
// back Unknown (the problem is undecidable; the fallback cannot prove
// divergence).
func TestDecideGeneralUnknown(t *testing.T) {
	// Non-guarded (three body variables, binary atoms) and diverging: each
	// round re-seeds both body predicates with fresh values.
	rs := mustRules(t, `e(X,Y), f(Y,Z) -> e(Z,W), f(W,V).`)
	v, err := DecideContext(context.Background(), rs, chase.SemiOblivious, DecideOptions{
		OracleMaxTriggers: 2000, OracleMaxFacts: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Answer != Unknown {
		t.Errorf("answer: %v, want Unknown", v.Answer)
	}
	if v.Witness == "" {
		t.Error("expected a diagnostic witness")
	}
}

// TestDecideObliviousDispatch: the o-variant takes the aux route for
// guarded sets.
func TestDecideObliviousDispatch(t *testing.T) {
	rs := mustRules(t, `g(X,Y), gate(X) -> g(Y,Z).`)
	v, err := DecideContext(context.Background(), rs, chase.Oblivious, DecideOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Method != "guarded-forest(aux)" {
		t.Errorf("method: %s", v.Method)
	}
	// Oblivious: the gate's guard matches g(✶,f(✶)) with a NEW full
	// homomorphism each level? No — the gate still blocks at depth 2, and
	// oblivious triggers need new homomorphisms, which need new atoms over
	// gate-satisfying values. Expect termination.
	if v.Answer != Terminating {
		t.Errorf("answer: %v (witness %s)", v.Answer, v.Witness)
	}
	if got := empiricalT(t, rs, chase.Oblivious); got != v.Answer {
		t.Errorf("oracle disagrees: %v vs %v", got, v.Answer)
	}
}

func mustRules(t *testing.T, src string) *logic.RuleSet {
	t.Helper()
	rs, err := parse.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func empiricalT(t *testing.T, rs *logic.RuleSet, v chase.Variant) Answer {
	return empirical(t, rs, v)
}
