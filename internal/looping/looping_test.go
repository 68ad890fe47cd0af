package looping

import (
	"context"
	"testing"

	"chaseterm/internal/chase"
	"chaseterm/internal/core"
	"chaseterm/internal/critical"
	"chaseterm/internal/logic"
	"chaseterm/internal/parse"
)

func TestChainEntailment(t *testing.T) {
	for _, k := range []int{1, 3, 8} {
		yes := Chain(k, true)
		got, err := EntailedContext(context.Background(), yes, chase.Options{})
		if err != nil || !got {
			t.Errorf("Chain(%d,true): entailed=%v err=%v", k, got, err)
		}
		no := Chain(k, false)
		got, err = EntailedContext(context.Background(), no, chase.Options{})
		if err != nil || got {
			t.Errorf("Chain(%d,false): entailed=%v err=%v", k, got, err)
		}
	}
}

func TestCounterEntailment(t *testing.T) {
	for _, b := range []int{1, 2, 4} {
		inst := Counter(b)
		got, err := EntailedContext(context.Background(), inst, chase.Options{})
		if err != nil || !got {
			t.Errorf("Counter(%d): entailed=%v err=%v", b, got, err)
		}
	}
}

func TestCounterStepCount(t *testing.T) {
	// Reaching 1...1 from 0...0 requires exactly 2^b - 1 increments; the
	// saturation applies exactly that many triggers (each counter value is
	// derived once).
	inst := Counter(4)
	res, err := chase.RunFromAtomsContext(context.Background(), inst.DB, inst.Rules, chase.SemiOblivious, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != chase.Terminated {
		t.Fatal("counter chase did not saturate")
	}
	if res.Stats.TriggersApplied != 15 {
		t.Errorf("triggers: %d, want 15", res.Stats.TriggersApplied)
	}
}

// TestLoopPreservesClass: the token threading keeps the transformed set in
// the source's syntactic class.
func TestLoopPreservesClass(t *testing.T) {
	chain, err := Loop(Chain(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if got := chain.Classify(); got != logic.ClassSimpleLinear {
		t.Errorf("looped chain class: %v", got)
	}
	counter, err := Loop(Counter(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := counter.Classify(); got != logic.ClassSimpleLinear {
		t.Errorf("looped counter class: %v", got)
	}
	// A guarded instance stays guarded.
	g := Instance{
		Rules: parse.MustParseRules(`e(X,Y), m(X) -> e(Y,X), m(Y).`),
		DB:    parse.MustParseFacts(`e(a,b). m(a).`),
		Goal:  logic.NewAtom("m", logic.Constant("b")),
	}
	lg, err := Loop(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := lg.Classify(); got != logic.ClassGuarded {
		t.Errorf("looped guarded class: %v", got)
	}
}

// TestLoopReduction is the heart of the looping operator: the transformed
// set diverges exactly when the goal is entailed — decided with the exact
// linear decider, and corroborated by the bounded critical-instance oracle.
func TestLoopReduction(t *testing.T) {
	cases := []struct {
		name     string
		inst     Instance
		entailed bool
	}{
		{"chain3-yes", Chain(3, true), true},
		{"chain3-no", Chain(3, false), false},
		{"chain1-yes", Chain(1, true), true},
		{"counter2", Counter(2), true},
		{"counter3", Counter(3), true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if got, err := EntailedContext(context.Background(), tc.inst, chase.Options{}); err != nil || got != tc.entailed {
				t.Fatalf("entailment ground truth: %v err=%v", got, err)
			}
			looped, err := Loop(tc.inst)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.DecideLinearContext(context.Background(), looped, chase.SemiOblivious, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantAnswer := core.Terminating
			if tc.entailed {
				wantAnswer = core.NonTerminating
			}
			if res.Verdict.Answer != wantAnswer {
				t.Errorf("decider: %v, want %v", res.Verdict.Answer, wantAnswer)
			}
			// Empirical corroboration on the critical instance.
			oracle, err := critical.OracleContext(context.Background(), looped, chase.SemiOblivious, chase.Options{MaxTriggers: 20000, MaxFacts: 20000})
			if err != nil {
				t.Fatal(err)
			}
			terminated := oracle.Outcome == chase.Terminated
			if terminated != (wantAnswer == core.Terminating) {
				t.Errorf("oracle: terminated=%v, want %v", terminated, wantAnswer == core.Terminating)
			}
		})
	}
}

// TestLoopObliviousVariant: the reduction also works for CT^o.
func TestLoopObliviousVariant(t *testing.T) {
	looped, err := Loop(Chain(2, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DecideLinearContext(context.Background(), looped, chase.Oblivious, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.Answer != core.NonTerminating {
		t.Errorf("CT^o: %v, want non-terminating", res.Verdict.Answer)
	}
}

// TestLoopGuardedDecider: a guarded entailment instance routed through the
// guarded cloud decider.
func TestLoopGuardedDecider(t *testing.T) {
	reach := Instance{
		Rules: parse.MustParseRules(`edge(X,Y), reach(X) -> reach(Y).`),
		DB:    parse.MustParseFacts(`edge(a,b). edge(b,c). reach(a).`),
		Goal:  logic.NewAtom("reach", logic.Constant("c")),
	}
	if got, err := EntailedContext(context.Background(), reach, chase.Options{}); err != nil || !got {
		t.Fatalf("ground truth: %v %v", got, err)
	}
	looped, err := Loop(reach)
	if err != nil {
		t.Fatal(err)
	}
	if got := looped.Classify(); got != logic.ClassGuarded {
		t.Fatalf("class: %v", got)
	}
	res, err := core.DecideGuardedContext(context.Background(), looped, chase.SemiOblivious, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer != core.NonTerminating {
		t.Errorf("guarded decider: %v, want non-terminating", res.Answer)
	}
	// The unreachable variant terminates.
	reach.Goal = logic.NewAtom("reach", logic.Constant("zzz"))
	reach.DB = append(reach.DB, logic.NewAtom("node", logic.Constant("zzz")))
	looped2, err := Loop(reach)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.DecideGuardedContext(context.Background(), looped2, chase.SemiOblivious, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Answer != core.Terminating {
		t.Errorf("guarded decider on non-entailed: %v, want terminating (witness %s)",
			res2.Answer, res2.Witness)
	}
}

func TestLoopErrors(t *testing.T) {
	if _, err := Loop(Instance{
		Rules: parse.MustParseRules(`p(X) -> q(X).`),
		DB:    nil,
		Goal:  logic.NewAtom("q", logic.Constant("a")),
	}); err == nil {
		t.Error("empty database accepted")
	}
	if _, err := Loop(Instance{
		Rules: parse.MustParseRules(`p(X) -> q(X).`),
		DB:    parse.MustParseFacts(`p(a).`),
		Goal:  logic.NewAtom("q", logic.Variable("X")),
	}); err == nil {
		t.Error("non-ground goal accepted")
	}
}

func TestEntailedMissingPredicate(t *testing.T) {
	got, err := EntailedContext(context.Background(), Instance{
		Rules: parse.MustParseRules(`p(X) -> q(X).`),
		DB:    parse.MustParseFacts(`p(a).`),
		Goal:  logic.NewAtom("zzz", logic.Constant("a")),
	}, chase.Options{})
	if err != nil || got {
		t.Errorf("missing predicate: %v %v", got, err)
	}
}
