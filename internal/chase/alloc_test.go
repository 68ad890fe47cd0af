package chase

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
	"chaseterm/internal/parse"
)

// Steady-state allocation pins: a trigger application whose facts all
// exist, a duplicate trigger offer, and a restricted-chase satisfaction
// check must not allocate. These are the three operations a saturating
// chase spends almost all of its time in.

func saturatedEngine(t *testing.T, src string, db []logic.Atom, v Variant) (*Engine, *instance.Instance) {
	t.Helper()
	rules := parse.MustParseRules(src)
	in, err := instance.FromAtoms(db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), in, rules, v, Options{})
	if err != nil || res.Outcome != Terminated {
		t.Fatalf("saturation failed: %v %v", res, err)
	}
	e, err := NewEngine(in, rules, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e, in
}

func chainDB(n int) []logic.Atom {
	var facts []logic.Atom
	for i := 0; i < n; i++ {
		facts = append(facts, logic.NewAtom("e",
			logic.Constant(fmt.Sprintf("a%d", i)), logic.Constant(fmt.Sprintf("a%d", i+1))))
	}
	return facts
}

// The duplicate offer and rediscovery pins use a rule whose frontier
// misses a body variable: its semi-oblivious triggers go through the
// identity set. A one-atom rule whose key is the whole binding queues
// its anchor facts, and the engine never offers one of its triggers.

func TestOfferDuplicateAllocFree(t *testing.T) {
	e, _ := saturatedEngine(t, "e(X,Y) -> r(X).", chainDB(16), SemiOblivious)
	binding := []instance.TermID{1, 2}
	e.offer(0, binding) // first offer inserts
	enq := e.stats.TriggersEnqueued
	if n := testing.AllocsPerRun(200, func() {
		e.offer(0, binding)
	}); n != 0 {
		t.Errorf("duplicate offer allocates %v per run, want 0", n)
	}
	if e.stats.TriggersEnqueued != enq {
		t.Fatal("duplicate offers must not enqueue")
	}
}

func TestApplyExistingFactsAllocFree(t *testing.T) {
	// A rule with an existential: the steady-state apply re-interns the
	// Skolem term and re-adds an existing fact.
	e, in := saturatedEngine(t, "p(X) -> q(X,Z).", []logic.Atom{
		logic.NewAtom("p", logic.Constant("a")),
		logic.NewAtom("p", logic.Constant("b")),
	}, SemiOblivious)
	cr := &e.rules[0]
	a, _ := in.Terms.LookupConst("a")
	fr := []instance.TermID{a}
	if added, _ := e.apply(cr, fr); added != 0 {
		t.Fatal("instance must already be saturated")
	}
	if n := testing.AllocsPerRun(200, func() {
		if added, _ := e.apply(cr, fr); added != 0 {
			t.Fatal("steady-state apply added a fact")
		}
	}); n != 0 {
		t.Errorf("steady-state apply allocates %v per run, want 0", n)
	}
}

func TestHeadSatisfiedAllocFree(t *testing.T) {
	e, in := saturatedEngine(t, "e(X,Y) -> r(X,Y).", chainDB(16), Restricted)
	a, _ := in.Terms.LookupConst("a0")
	b, _ := in.Terms.LookupConst("a1")
	cr := &e.rules[0]
	fr := []instance.TermID{a, b}
	if !e.headSatisfied(cr, fr) {
		t.Fatal("head must be satisfied on the saturated instance")
	}
	if n := testing.AllocsPerRun(200, func() {
		e.headSatisfied(cr, fr)
	}); n != 0 {
		t.Errorf("headSatisfied allocates %v per run, want 0", n)
	}
}

// TestHeadSatisfiedExistentialAllocFree: a full rule's head, as in
// TestHeadSatisfiedAllocFree, carries no head pattern and is checked by
// lookup; the single-atom existential head r(X,Z) is checked through
// its pattern, which walks the (r, 0, x) posting chain, and must stay
// allocation-free both when the head is satisfied and when it is not.
func TestHeadSatisfiedExistentialAllocFree(t *testing.T) {
	full, _ := saturatedEngine(t, "e(X,Y) -> r(X,Y).", chainDB(4), Restricted)
	if full.rules[0].headPattern != nil {
		t.Fatal("a full rule carries a head pattern")
	}
	e, in := saturatedEngine(t, "e(X,Y) -> r(X,Z).", chainDB(16), Restricted)
	a, _ := in.Terms.LookupConst("a0")
	last, _ := in.Terms.LookupConst("a16")
	cr := &e.rules[0]
	r, _ := in.LookupPred("r")
	if cr.headPattern == nil || !in.Indexed(r, 0) {
		t.Fatal("setup: the existential head must be checked through an indexed pattern")
	}
	hit, miss := []instance.TermID{a}, []instance.TermID{last}
	if !e.headSatisfied(cr, hit) || e.headSatisfied(cr, miss) {
		t.Fatal("setup: the head must be satisfied for a0 only")
	}
	if n := testing.AllocsPerRun(200, func() {
		e.headSatisfied(cr, hit)
		e.headSatisfied(cr, miss)
	}); n != 0 {
		t.Errorf("existential headSatisfied allocates %v per run, want 0", n)
	}
}

// TestHeadSatisfiedTwoAtomAllocFree: the seeded plan of a qualified
// existential's head, r(X,Z), c(Z) with X bound, walks a posting chain
// and probes a second level, and must stay allocation-free both when
// the head is satisfied and when it is not.
func TestHeadSatisfiedTwoAtomAllocFree(t *testing.T) {
	e, in := saturatedEngine(t, "e(X,Y) -> r(X,Z), c(Z).", chainDB(16), Restricted)
	a, _ := in.Terms.LookupConst("a0")
	last, _ := in.Terms.LookupConst("a16")
	cr := &e.rules[0]
	hit, miss := []instance.TermID{a}, []instance.TermID{last}
	if !e.headSatisfied(cr, hit) || e.headSatisfied(cr, miss) {
		t.Fatal("setup: the head must be satisfied for a0 only")
	}
	if n := testing.AllocsPerRun(200, func() {
		e.headSatisfied(cr, hit)
		e.headSatisfied(cr, miss)
	}); n != 0 {
		t.Errorf("two-atom headSatisfied allocates %v per run, want 0", n)
	}
}

func TestDiscoverRediscoveryAllocFree(t *testing.T) {
	e, in := saturatedEngine(t, "e(X,Y) -> r(X).", chainDB(16), SemiOblivious)
	a, _ := in.Terms.LookupConst("a3")
	b, _ := in.Terms.LookupConst("a4")
	ep, ok := in.LookupPred("e")
	if !ok {
		t.Fatal("setup: predicate e missing")
	}
	fid, ok := in.Lookup(ep, []instance.TermID{a, b})
	if !ok {
		t.Fatal("setup: anchor fact missing")
	}
	e.discover(fid) // first discovery enqueues and warms the queue/arena
	enq := e.stats.TriggersEnqueued
	if enq == 0 {
		t.Fatal("setup: discovery found no triggers")
	}
	if n := testing.AllocsPerRun(200, func() {
		e.discover(fid)
	}); n != 0 {
		t.Errorf("re-discovery allocates %v per run, want 0", n)
	}
	if e.stats.TriggersEnqueued != enq {
		t.Fatal("re-discovered triggers must dedup, not enqueue")
	}
}

// TestSteadyStateRunAllocsPerTrigger runs a whole chase over an already
// saturated instance — every application is a no-op, so no trigger is
// discovered — and bounds the measured allocations per applied trigger.
// Both rules are unique, so seeding queues 400 anchor facts and the run
// allocates only for the queue's doublings, the frontier buffer and the
// result: 9 times. The budget of 0.05 (20 allocations) leaves
// room for those only; the per-trigger loop itself is allocation-free.
func TestSteadyStateRunAllocsPerTrigger(t *testing.T) {
	rules := parse.MustParseRules("e(X,Y) -> r(X,Y).\nr(X,Y) -> s(Y,X).")
	in, err := instance.FromAtoms(chainDB(200))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := RunContext(context.Background(), in, rules, SemiOblivious, Options{}); err != nil || res.Outcome != Terminated {
		t.Fatalf("saturation failed: %v %v", res, err)
	}
	e, err := NewEngine(in, rules, SemiOblivious, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := e.RunContext(context.Background())
	runtime.ReadMemStats(&m1)
	if err != nil || res.Outcome != Terminated {
		t.Fatalf("steady-state run failed: %v %v", res, err)
	}
	if res.Stats.FactsAdded != 0 {
		t.Fatalf("saturated instance grew by %d facts", res.Stats.FactsAdded)
	}
	if res.Stats.TriggersApplied == 0 {
		t.Fatal("no triggers applied")
	}
	perTrigger := float64(m1.Mallocs-m0.Mallocs) / float64(res.Stats.TriggersApplied)
	if perTrigger >= 0.05 {
		t.Errorf("steady-state run: %.3f allocs per applied trigger (%d allocs / %d triggers), want < 0.05",
			perTrigger, m1.Mallocs-m0.Mallocs, res.Stats.TriggersApplied)
	}
}

// TestGrowthRunAllocs pins the growth path: a chase that derives 4,000
// facts and, semi-obliviously, interns 4,000 Skolem terms from a
// 2,000-fact database. Facts, Skolem terms and the triggers that can
// repeat live in the arenas of instance.TupleSets, and pending triggers
// in the engine's ring, so a run allocates only for the amortized growth
// of those arenas, the ring and the indexes (190 to 290 times, FromAtoms
// included) — never once per fact, term or trigger.
func TestGrowthRunAllocs(t *testing.T) {
	rules := parse.MustParseRules("e(X,Y) -> r(Y,Z).\nr(X,Y) -> s(X,Y,W).")
	db := chainDB(2000)
	for _, v := range []Variant{SemiOblivious, Oblivious, Restricted} {
		var res *Result
		n := testing.AllocsPerRun(3, func() {
			in, err := instance.FromAtoms(db)
			if err != nil {
				t.Fatal(err)
			}
			if res, err = RunContext(context.Background(), in, rules, v, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if res.Outcome != Terminated || res.Stats.FactsAdded != 4000 {
			t.Fatalf("%v: %v after %d derived facts, want terminated after 4000", v, res.Outcome, res.Stats.FactsAdded)
		}
		if n > 500 {
			t.Errorf("%v: growth run allocates %v times, want <= 500", v, n)
		}
	}
}
