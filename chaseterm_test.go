package chaseterm

import (
	"context"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	rules := MustParseRules(`person(X) -> hasFather(X,Y), person(Y).`)
	if rules.Classify() != SimpleLinear {
		t.Fatalf("class: %v", rules.Classify())
	}
	v, err := decide(context.Background(), rules, SemiOblivious)
	if err != nil {
		t.Fatal(err)
	}
	if v.Terminates != No {
		t.Errorf("Example 1 must be non-terminating, got %v", v.Terminates)
	}
	if v.Witness == "" {
		t.Error("expected a witness cycle")
	}
	db := MustParseDatabase(`person(bob).`)
	res, err := chaseOn(context.Background(), db, rules, SemiOblivious, ChaseOptions{MaxTriggers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != BudgetExceeded {
		t.Errorf("outcome: %v", res.Outcome)
	}
	if res.Stats.FactsAdded != 20 {
		t.Errorf("facts added: %d, want 20 (2 per trigger)", res.Stats.FactsAdded)
	}
}

func TestDecideAllVariants(t *testing.T) {
	// p(X,Y) -> ∃Z p(X,Z): o diverges, so terminates, restricted
	// terminates (via so).
	rules := MustParseRules(`p(X,Y) -> p(X,Z).`)
	cases := []struct {
		v    Variant
		want Ternary
	}{
		{Oblivious, No},
		{SemiOblivious, Yes},
		{Restricted, Yes},
	}
	for _, tc := range cases {
		v, err := decide(context.Background(), rules, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if v.Terminates != tc.want {
			t.Errorf("%v: got %v, want %v", tc.v, v.Terminates, tc.want)
		}
	}
}

func TestDecideRestrictedUnknown(t *testing.T) {
	// Example 2 diverges under o/so; the restricted answer is left open by
	// the paper.
	rules := MustParseRules(`p(X,Y) -> p(Y,Z).`)
	v, err := decide(context.Background(), rules, Restricted)
	if err != nil {
		t.Fatal(err)
	}
	if v.Terminates != Unknown {
		t.Errorf("restricted: got %v, want unknown", v.Terminates)
	}
	if !strings.Contains(v.Witness, "open problem") {
		t.Errorf("witness: %q", v.Witness)
	}
}

func TestGuardedViaFacade(t *testing.T) {
	rules := MustParseRules(`g(X,Y), gate(X) -> g(Y,Z).`)
	if rules.Classify() != Guarded {
		t.Fatalf("class: %v", rules.Classify())
	}
	for _, v := range []Variant{Oblivious, SemiOblivious} {
		verdict, err := decide(context.Background(), rules, v)
		if err != nil {
			t.Fatal(err)
		}
		if verdict.Terminates != Yes {
			t.Errorf("%v: got %v", v, verdict.Terminates)
		}
		if !strings.HasPrefix(verdict.Method, "guarded-forest") {
			t.Errorf("%v: method %s", v, verdict.Method)
		}
		if verdict.SearchSpace == 0 {
			t.Errorf("%v: no search-space report", v)
		}
	}
}

func TestCriticalDatabase(t *testing.T) {
	rules := MustParseRules(`p(X,Y) -> q(Y).`)
	db := CriticalDatabase(rules)
	if db.Size() != 2 { // p(✶,✶), q(✶)
		t.Errorf("critical size: %d", db.Size())
	}
	res, err := chaseOn(context.Background(), db, rules, SemiOblivious, ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Terminated {
		t.Errorf("outcome: %v", res.Outcome)
	}
}

func TestEntailmentAndLooping(t *testing.T) {
	inst := EntailmentInstance{
		Rules: MustParseRules(`edge(X,Y), reach(X) -> reach(Y).`),
		DB:    MustParseDatabase(`edge(a,b). edge(b,c). reach(a).`),
		Goal:  "reach(c)",
	}
	ok, err := EntailsContext(context.Background(), inst)
	if err != nil || !ok {
		t.Fatalf("entails: %v %v", ok, err)
	}
	looped, err := LoopEntailment(inst)
	if err != nil {
		t.Fatal(err)
	}
	if looped.Classify() != Guarded {
		t.Errorf("looped class: %v", looped.Classify())
	}
	v, err := decide(context.Background(), looped, SemiOblivious)
	if err != nil {
		t.Fatal(err)
	}
	if v.Terminates != No {
		t.Errorf("looped verdict: %v, want non-terminating (goal is entailed)", v.Terminates)
	}

	inst.Goal = "reach(zzz)"
	inst.DB = MustParseDatabase(`edge(a,b). edge(b,c). reach(a). isolated(zzz).`)
	ok, err = EntailsContext(context.Background(), inst)
	if err != nil || ok {
		t.Fatalf("entails: %v %v", ok, err)
	}
	looped, err = LoopEntailment(inst)
	if err != nil {
		t.Fatal(err)
	}
	v, err = decide(context.Background(), looped, SemiOblivious)
	if err != nil {
		t.Fatal(err)
	}
	if v.Terminates != Yes {
		t.Errorf("looped verdict: %v, want terminating (goal not entailed)", v.Terminates)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := ParseRules(`p(X) -> `); err == nil {
		t.Error("bad rules accepted")
	}
	if _, err := ParseDatabase(`p(X).`); err == nil {
		t.Error("non-ground fact accepted")
	}
	if _, err := ParseVariant("nope"); err == nil {
		t.Error("bad variant accepted")
	}
	inst := EntailmentInstance{
		Rules: MustParseRules(`p(X) -> q(X).`),
		DB:    MustParseDatabase(`p(a).`),
		Goal:  "q(X)",
	}
	if _, err := EntailsContext(context.Background(), inst); err == nil {
		t.Error("non-ground goal accepted")
	}
	if _, err := LoopEntailment(inst); err == nil {
		t.Error("non-ground goal accepted by LoopEntailment")
	}
}

func TestVariantStrings(t *testing.T) {
	if Oblivious.String() != "oblivious" || SemiOblivious.String() != "semi-oblivious" || Restricted.String() != "restricted" {
		t.Error("variant strings wrong")
	}
	for _, s := range []string{"o", "so", "r"} {
		if _, err := ParseVariant(s); err != nil {
			t.Errorf("ParseVariant(%q): %v", s, err)
		}
	}
}

func TestRuleSetIntrospection(t *testing.T) {
	rules := MustParseRules(`p(X,Y) -> q(Y).
q(X) -> r(X,X,X).`)
	if rules.NumRules() != 2 {
		t.Errorf("NumRules: %d", rules.NumRules())
	}
	if rules.MaxArity() != 3 {
		t.Errorf("MaxArity: %d", rules.MaxArity())
	}
	preds := rules.Predicates()
	if len(preds) != 3 || preds[0] != "p/2" {
		t.Errorf("Predicates: %v", preds)
	}
	if !strings.Contains(rules.String(), "p(X,Y) -> q(Y).") {
		t.Errorf("String: %s", rules.String())
	}
}

func TestChaseResultFacts(t *testing.T) {
	db := MustParseDatabase(`person(bob).`)
	rules := MustParseRules(`person(X) -> hasFather(X,Y).`)
	res, err := chaseOn(context.Background(), db, rules, SemiOblivious, ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	facts := res.Facts()
	if len(facts) != 2 {
		t.Fatalf("facts: %v", facts)
	}
	if facts[0] != "hasFather(bob,f0_Y(bob))" {
		t.Errorf("skolem rendering: %s", facts[0])
	}
}
