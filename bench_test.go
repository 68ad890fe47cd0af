// Benchmarks: one per experiment of DESIGN.md §4 (E1–E12), plus
// engine-level micro-benchmarks. Regenerate the full tables with
// cmd/chasebench; these benches track the per-operation costs of the same
// code paths under `go test -bench=. -benchmem`.
package chaseterm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"chaseterm/internal/acyclicity"
	"chaseterm/internal/chase"
	"chaseterm/internal/core"
	"chaseterm/internal/critical"
	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
	"chaseterm/internal/looping"
	"chaseterm/internal/parse"
	"chaseterm/internal/workload"
)

// BenchmarkE1_Example1Chase: cost of one bounded run of the paper's
// Example 1 (100 triggers ≈ 200 facts), per variant.
func BenchmarkE1_Example1Chase(b *testing.B) {
	rules := workload.Example1()
	db := workload.Example1DB()
	for _, v := range []chase.Variant{chase.Oblivious, chase.SemiOblivious, chase.Restricted} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := chase.RunFromAtomsContext(context.Background(), db, rules, v, chase.Options{MaxTriggers: 100})
				if err != nil {
					b.Fatal(err)
				}
				if res.Outcome == chase.Terminated {
					b.Fatal("expected divergence")
				}
			}
		})
	}
}

// BenchmarkChaseCancelOverhead isolates what the cooperative-
// cancellation check costs the chase hot loop: the same divergent
// 10k-trigger run under a background context (Done() is nil, so the
// checks short-circuit) and under a live cancelable context (the
// Done channel is polled every 1024 applications). The two timings
// should be indistinguishable.
func BenchmarkChaseCancelOverhead(b *testing.B) {
	rules := workload.Example1()
	db := workload.Example1DB()
	opt := chase.Options{MaxTriggers: 10_000, MaxFacts: 1_000_000}
	b.Run("background", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := chase.RunFromAtomsContext(context.Background(), db, rules, chase.SemiOblivious, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cancelable", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := 0; i < b.N; i++ {
			if _, err := chase.RunFromAtomsContext(ctx, db, rules, chase.SemiOblivious, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE2_Example2Decide: the exact decision on Example 2.
func BenchmarkE2_Example2Decide(b *testing.B) {
	rules := workload.Example2()
	for i := 0; i < b.N; i++ {
		res, err := core.DecideLinearContext(context.Background(), rules, core.VariantSemiOblivious, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict.Answer != core.NonTerminating {
			b.Fatal("wrong answer")
		}
	}
}

// benchSLSets pre-generates SL rule sets for E3/E4.
func benchSLSets(n int) []*logic.RuleSet {
	rng := rand.New(rand.NewSource(21))
	sets := make([]*logic.RuleSet, n)
	for i := range sets {
		sets[i] = workload.RandomSL(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3})
	}
	return sets
}

// BenchmarkE3_SLDecideSemiOblivious: Theorem 1 decision throughput (so).
func BenchmarkE3_SLDecideSemiOblivious(b *testing.B) {
	sets := benchSLSets(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DecideLinearContext(context.Background(), sets[i%len(sets)], core.VariantSemiOblivious, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_SLDecideOblivious: Theorem 1 decision throughput (o), with
// the positional RA check for comparison.
func BenchmarkE4_SLDecideOblivious(b *testing.B) {
	sets := benchSLSets(64)
	b.Run("critical-rich-acyclicity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DecideLinearContext(context.Background(), sets[i%len(sets)], core.VariantOblivious, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("positional-RA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acyclicity.IsRichlyAcyclic(sets[i%len(sets)])
		}
	})
}

// BenchmarkE5_LinearDecide: Theorem 2 decision on non-simple linear sets.
func BenchmarkE5_LinearDecide(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	sets := make([]*logic.RuleSet, 64)
	for i := range sets {
		sets[i] = workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 3, NumRules: 3, RepeatProb: 0.5})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DecideLinearContext(context.Background(), sets[i%len(sets)], core.VariantSemiOblivious, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_SLFamily: Theorem 3(1) — the NL scaling series over the
// rule-chain family.
func BenchmarkE6_SLFamily(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		rules := workload.SLFamily(n, true)
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DecideLinearContext(context.Background(), rules, core.VariantSemiOblivious, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7_LinearArity: Theorem 3(2) — exponential arity scaling.
func BenchmarkE7_LinearArity(b *testing.B) {
	for _, w := range []int{2, 4, 6} {
		rules := workload.LinearArityFamily(w)
		b.Run(fmt.Sprintf("arity=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DecideLinearContext(context.Background(), rules, core.VariantSemiOblivious, core.Options{MaxShapes: 5_000_000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8_GuardedDecide: Theorem 4 — the guarded forest decider, both
// on random sets and on the arity family.
func BenchmarkE8_GuardedDecide(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	sets := make([]*logic.RuleSet, 32)
	for i := range sets {
		sets[i] = workload.RandomGuarded(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3})
	}
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DecideGuardedContext(context.Background(), sets[i%len(sets)], core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, w := range []int{2, 3, 4} {
		rules := workload.GuardedArityFamily(w)
		b.Run(fmt.Sprintf("arity=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DecideGuardedContext(context.Background(), rules, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9_Looping: the entailment→termination reduction, end to end
// (loop + exact decision), on the binary-counter family.
func BenchmarkE9_Looping(b *testing.B) {
	for _, bits := range []int{2, 4, 6} {
		inst := looping.Counter(bits)
		b.Run(fmt.Sprintf("counter=%db", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				looped, err := looping.Loop(inst)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.DecideLinearContext(context.Background(), looped, core.VariantSemiOblivious, core.Options{MaxShapes: 5_000_000})
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict.Answer != core.NonTerminating {
					b.Fatal("counter goal must be entailed")
				}
			}
		})
	}
}

// BenchmarkE10_ChaseAnatomy: full terminating chase runs per variant on
// the ontology scenario (the o/so/restricted work comparison).
func BenchmarkE10_ChaseAnatomy(b *testing.B) {
	rules := workload.OntologySL()
	db := workload.OntologyDB()
	for _, v := range []chase.Variant{chase.Oblivious, chase.SemiOblivious, chase.Restricted} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := chase.RunFromAtomsContext(context.Background(), db, rules, v, chase.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Outcome != chase.Terminated {
					b.Fatal("expected termination")
				}
			}
		})
	}
}

// BenchmarkE11_Acyclicity: positional WA/RA checks (the containment
// experiment's workhorses).
func BenchmarkE11_Acyclicity(b *testing.B) {
	sets := benchSLSets(64)
	b.Run("weak", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acyclicity.IsWeaklyAcyclic(sets[i%len(sets)])
		}
	})
	b.Run("rich", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acyclicity.IsRichlyAcyclic(sets[i%len(sets)])
		}
	})
}

// BenchmarkE12_AuxTransform: the o→so reduction (transform + decision)
// against the direct o-decision.
func BenchmarkE12_AuxTransform(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	sets := make([]*logic.RuleSet, 32)
	for i := range sets {
		sets[i] = workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3})
	}
	b.Run("direct-o", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DecideLinearContext(context.Background(), sets[i%len(sets)], core.VariantOblivious, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("via-aux", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aux := critical.AuxTransform(sets[i%len(sets)])
			if _, err := core.DecideLinearContext(context.Background(), aux, core.VariantSemiOblivious, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Engine micro-benchmarks.
// ---------------------------------------------------------------------------

// BenchmarkEngineHomomorphism: backtracking join over a chain instance.
func BenchmarkEngineHomomorphism(b *testing.B) {
	in := instance.New()
	e := in.Pred("e", 2)
	terms := make([]instance.TermID, 512)
	for i := range terms {
		terms[i] = in.Terms.Const(fmt.Sprintf("c%d", i))
	}
	for i := 0; i+1 < len(terms); i++ {
		in.Add(e, []instance.TermID{terms[i], terms[i+1]})
	}
	pat, err := instance.CompileBody(in, []logic.Atom{
		logic.NewAtom("e", logic.Variable("X"), logic.Variable("Y")),
		logic.NewAtom("e", logic.Variable("Y"), logic.Variable("Z")),
		logic.NewAtom("e", logic.Variable("Z"), logic.Variable("W")),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := in.CountHoms(pat); n != 509 {
			b.Fatalf("homs: %d", n)
		}
	}
}

// BenchmarkEngineTriggerThroughput: a saturating datalog-style run, facts
// per second.
func BenchmarkEngineTriggerThroughput(b *testing.B) {
	rules := parse.MustParseRules(`e(X,Y) -> r(X,Y).
r(X,Y) -> s(Y,X).`)
	var facts []logic.Atom
	for i := 0; i < 400; i++ {
		facts = append(facts, logic.NewAtom("e",
			logic.Constant(fmt.Sprintf("a%d", i)), logic.Constant(fmt.Sprintf("a%d", i+1))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := chase.RunFromAtomsContext(context.Background(), facts, rules, chase.SemiOblivious, chase.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != chase.Terminated {
			b.Fatal("expected termination")
		}
	}
}

// BenchmarkEngineCriticalInstance: building I*(Σ) for a mid-sized schema.
func BenchmarkEngineCriticalInstance(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	rules := workload.RandomGuarded(rng, workload.Config{NumPreds: 8, MaxArity: 3, NumRules: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := critical.Instance(rules); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScaleOntology: a realistic materialization workload — a
// DL-Lite TBox over a 2000-fact ABox, per variant (see ontologyCase).
func BenchmarkEngineScaleOntology(b *testing.B) {
	rules, db := ontologyCase(b)
	for _, v := range []chase.Variant{chase.SemiOblivious, chase.Restricted} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := chase.RunFromAtomsContext(context.Background(), db, rules, v, chase.Options{MaxFacts: 500_000, MaxTriggers: 500_000})
				if err != nil {
					b.Fatal(err)
				}
				if res.Outcome != chase.Terminated {
					b.Fatalf("outcome %v after %d facts", res.Outcome, res.Stats.FactsAdded)
				}
				b.ReportMetric(float64(res.Stats.FactsAdded), "facts/run")
			}
		})
	}
}

// BenchmarkCoreComputation: instance minimization on a chase result with
// foldable nulls.
func BenchmarkCoreComputation(b *testing.B) {
	rules := workload.DataExchange()
	db := workload.DataExchangeDB()
	db = append(db, logic.NewAtom("emp", logic.Constant("carol"), logic.Constant("toys")))
	res, err := chase.RunFromAtomsContext(context.Background(), db, rules, chase.Restricted, chase.Options{})
	if err != nil || res.Outcome != chase.Terminated {
		b.Fatal("setup failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, removed := instance.Core(res.Instance)
		if removed == 0 {
			b.Fatal("expected folding")
		}
	}
}

// BenchmarkE14_CriteriaLadder: per-criterion costs on one linear set.
func BenchmarkE14_CriteriaLadder(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	rs := workload.RandomLinear(rng, workload.Config{NumPreds: 4, MaxArity: 3, NumRules: 6, RepeatProb: 0.4})
	b.Run("joint-acyclicity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acyclicity.IsJointlyAcyclic(rs)
		}
	})
	b.Run("critical-WA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DecideLinearContext(context.Background(), rs, core.VariantSemiOblivious, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE13_SequenceSearch: the restricted-chase sequence explorer on
// the ∀/∃ separation instance.
func BenchmarkE13_SequenceSearch(b *testing.B) {
	rules := parse.MustParseRules("r(X,Y) -> r(Y,Z).\nr(X,Y) -> r(Y,X).")
	db := parse.MustParseFacts(`r(a,b).`)
	for i := 0; i < b.N; i++ {
		res, err := chase.ExploreRestrictedTermination(db, rules, chase.ExploreOptions{})
		if err != nil || !res.Found {
			b.Fatalf("found=%v err=%v", res != nil && res.Found, err)
		}
	}
}

// BenchmarkParse: parser throughput on the ontology text.
func BenchmarkParse(b *testing.B) {
	src := workload.OntologySL().String()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := parse.ParseRules(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstanceContains: the dedup probe of the insertion hot path —
// an integer-keyed open-addressed hit/miss pair. Must report 0 allocs/op.
func BenchmarkInstanceContains(b *testing.B) {
	in := instance.New()
	e := in.Pred("e", 2)
	terms := make([]instance.TermID, 1024)
	for i := range terms {
		terms[i] = in.Terms.Const(fmt.Sprintf("c%d", i))
	}
	for i := 0; i+1 < len(terms); i++ {
		in.Add(e, []instance.TermID{terms[i], terms[i+1]})
	}
	hit := []instance.TermID{terms[500], terms[501]}
	miss := []instance.TermID{terms[501], terms[500]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !in.Contains(e, hit) || in.Contains(e, miss) {
			b.Fatal("membership flipped")
		}
	}
}

// BenchmarkEngineSteadyState: a full chase pass over an already saturated
// instance — every application is a no-op and every rediscovered trigger
// a dedup hit. This is the regime the allocation-free hot path targets;
// the per-trigger cost here is the engine's floor.
func BenchmarkEngineSteadyState(b *testing.B) {
	rules := parse.MustParseRules("e(X,Y) -> r(X,Y).\nr(X,Y) -> s(Y,X).")
	var facts []logic.Atom
	for i := 0; i < 400; i++ {
		facts = append(facts, logic.NewAtom("e",
			logic.Constant(fmt.Sprintf("a%d", i)), logic.Constant(fmt.Sprintf("a%d", i+1))))
	}
	in, err := instance.FromAtoms(facts)
	if err != nil {
		b.Fatal(err)
	}
	if res, err := chase.RunContext(context.Background(), in, rules, chase.SemiOblivious, chase.Options{}); err != nil || res.Outcome != chase.Terminated {
		b.Fatal("saturation failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := chase.RunContext(context.Background(), in, rules, chase.SemiOblivious, chase.Options{})
		if err != nil || res.Outcome != chase.Terminated || res.Stats.FactsAdded != 0 {
			b.Fatal("steady-state run derived facts")
		}
	}
}
