package workload

import (
	"context"
	"math/rand"
	"testing"

	"chaseterm/internal/chase"
	"chaseterm/internal/logic"
)

func TestRandomGeneratorsClassAndValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		sl := RandomSL(rng, Config{})
		if err := sl.Validate(); err != nil {
			t.Fatalf("SL invalid: %v\n%s", err, sl)
		}
		if sl.Classify() > logic.ClassSimpleLinear {
			t.Fatalf("RandomSL produced %v:\n%s", sl.Classify(), sl)
		}
		lin := RandomLinear(rng, Config{RepeatProb: 0.6})
		if err := lin.Validate(); err != nil {
			t.Fatalf("L invalid: %v\n%s", err, lin)
		}
		if lin.Classify() > logic.ClassLinear {
			t.Fatalf("RandomLinear produced %v:\n%s", lin.Classify(), lin)
		}
		g := RandomGuarded(rng, Config{})
		if err := g.Validate(); err != nil {
			t.Fatalf("G invalid: %v\n%s", err, g)
		}
		if g.Classify() > logic.ClassGuarded {
			t.Fatalf("RandomGuarded produced %v:\n%s", g.Classify(), g)
		}
	}
}

func TestRandomGeneratorsDeterministic(t *testing.T) {
	a := RandomGuarded(rand.New(rand.NewSource(7)), Config{NumRules: 5})
	b := RandomGuarded(rand.New(rand.NewSource(7)), Config{NumRules: 5})
	if a.String() != b.String() {
		t.Error("same seed produced different rule sets")
	}
	c := RandomGuarded(rand.New(rand.NewSource(8)), Config{NumRules: 5})
	if a.String() == c.String() {
		t.Error("different seeds produced identical rule sets")
	}
}

func TestRandomWithConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	found := false
	for i := 0; i < 50 && !found; i++ {
		rs := RandomLinear(rng, Config{ConstProb: 0.3})
		if err := rs.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(rs.Constants()) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("ConstProb produced no constants in 50 sets")
	}
}

func TestExamples(t *testing.T) {
	if got := Example1().Classify(); got != logic.ClassSimpleLinear {
		t.Errorf("Example1 class: %v", got)
	}
	if got := Example2().Classify(); got != logic.ClassSimpleLinear {
		t.Errorf("Example2 class: %v", got)
	}
	if len(Example1DB()) != 1 || len(Example2DB()) != 1 {
		t.Error("example databases wrong")
	}
	if err := Example1().Validate(); err != nil {
		t.Error(err)
	}
}

func TestOntologyTerminates(t *testing.T) {
	rs := OntologySL()
	if err := rs.Validate(); err != nil {
		t.Fatal(err)
	}
	if rs.Classify() != logic.ClassSimpleLinear {
		t.Fatalf("ontology class: %v", rs.Classify())
	}
	res, err := chase.RunFromAtomsContext(context.Background(), OntologyDB(), rs, chase.Restricted, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != chase.Terminated {
		t.Error("ontology chase did not terminate")
	}
	// Query: is ada's course taught by someone? (course ⊑ ∃teaches⁻ fires)
	in := res.Instance
	tid, ok := in.LookupPred("teaches")
	if !ok || len(in.ByPred(tid)) == 0 {
		t.Error("no teaches facts derived")
	}
}

func TestDataExchangeUniversalSolution(t *testing.T) {
	rs := DataExchange()
	if err := rs.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := chase.RunFromAtomsContext(context.Background(), DataExchangeDB(), rs, chase.Restricted, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != chase.Terminated {
		t.Fatal("data exchange chase did not terminate")
	}
	if viol, err := chase.IsModel(res.Instance, rs); err != nil || viol != "" {
		t.Errorf("solution is not a model: %s %v", viol, err)
	}
	// Managers must work in their departments (the third st-tgd).
	in := res.Instance
	wid, ok := in.LookupPred("works")
	if !ok || len(in.ByPred(wid)) < 4 {
		t.Errorf("works facts: %d", len(in.ByPred(wid)))
	}
}

func TestSLFamily(t *testing.T) {
	open := SLFamily(5, false)
	if err := open.Validate(); err != nil {
		t.Fatal(err)
	}
	if open.Classify() != logic.ClassSimpleLinear {
		t.Fatalf("class: %v", open.Classify())
	}
	closed := SLFamily(5, true)
	if len(closed.Rules) != 5 {
		t.Errorf("closed family rules: %d", len(closed.Rules))
	}
	if len(open.Rules) != 4 {
		t.Errorf("open family rules: %d", len(open.Rules))
	}
	one := SLFamily(1, false)
	if len(one.Rules) != 1 {
		t.Errorf("n=1 family rules: %d", len(one.Rules))
	}
}

func TestLinearArityFamily(t *testing.T) {
	for _, w := range []int{2, 3, 5} {
		rs := LinearArityFamily(w)
		if err := rs.Validate(); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if rs.Classify() > logic.ClassLinear {
			t.Fatalf("w=%d class: %v", w, rs.Classify())
		}
		if rs.MaxArity() != w {
			t.Errorf("w=%d arity: %d", w, rs.MaxArity())
		}
	}
}

func TestRandomInclusionDependencies(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	rs := RandomInclusionDependencies(rng, 5, 3, 40)
	if err := rs.Validate(); err != nil {
		t.Fatal(err)
	}
	if rs.Classify() != logic.ClassSimpleLinear {
		t.Fatalf("class: %v", rs.Classify())
	}
	if len(rs.Rules) != 40 {
		t.Errorf("rules: %d", len(rs.Rules))
	}
}

func TestRandomABox(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rs := RandomInclusionDependencies(rng, 4, 2, 20)
	db := RandomABox(rng, rs, 500, 50)
	if len(db) != 500 {
		t.Fatalf("facts: %d", len(db))
	}
	for _, f := range db {
		if !f.IsGround() {
			t.Fatalf("non-ground fact %s", f)
		}
	}
	// The facts must load into an instance without arity clashes.
	res, err := chase.RunFromAtomsContext(context.Background(), db, rs, chase.Restricted, chase.Options{MaxTriggers: 50000, MaxFacts: 100000})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
}

func TestGuardedArityFamily(t *testing.T) {
	for _, w := range []int{1, 2, 3} {
		rs := GuardedArityFamily(w)
		if err := rs.Validate(); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if rs.Classify() > logic.ClassGuarded {
			t.Fatalf("w=%d class: %v", w, rs.Classify())
		}
	}
}
