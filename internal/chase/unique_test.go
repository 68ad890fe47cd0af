package chase

import (
	"context"
	"fmt"
	"testing"

	"chaseterm/internal/instance"
	"chaseterm/internal/parse"
)

// runEngine runs a fresh engine over the facts to the end and returns it,
// so a test can inspect its trigger set.
func runEngine(t *testing.T, facts, rules string, v Variant) *Engine {
	t.Helper()
	in, err := instance.FromAtoms(parse.MustParseFacts(facts))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(in, parse.MustParseRules(rules), v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := e.RunContext(context.Background()); err != nil || res.Outcome != Terminated {
		t.Fatalf("%v: %v %v", v, res, err)
	}
	return e
}

// TestUniqueTriggersTakeNoSlot: the triggers of a one-atom rule whose key
// is the whole binding are queued as their anchor facts and never enter
// the identity set; every other trigger is found there under its own id,
// and no rule queues one key twice. A unique rule queues one trigger per
// fact matching its body atom — each fact anchors it once, at seeding or
// when discovered — so the identity set plus those facts account for
// every enqueued trigger, and every rule queues at least one.
func TestUniqueTriggersTakeNoSlot(t *testing.T) {
	const rules = `
		e(X,Y) -> r(X,Y).
		r(X,Y) -> s(Y,X,Z).
		e(X,Y), r(Y,Z) -> t(X,Z).
		e(X,Y) -> c(X).`
	const facts = `e(a,b). e(b,c). e(c,d). e(a,c). e(b,d).`
	// unique[v][rule]: rule 2 has two body atoms; rule 3's semi-oblivious
	// key drops Y.
	unique := map[Variant][4]bool{
		Oblivious:     {true, true, false, true},
		SemiOblivious: {true, true, false, false},
		Restricted:    {true, true, false, true},
	}
	for v, want := range unique {
		e := runEngine(t, facts, rules, v)
		perRule := [4]int{}
		for ri := range e.rules {
			cr := &e.rules[ri]
			if cr.unique != want[ri] {
				t.Errorf("%v rule %d: unique = %v, want %v", v, ri, cr.unique, want[ri])
			}
			if cr.unique {
				perRule[ri] = e.in.CountHoms(cr.body)
			}
		}
		keys := map[string]bool{}
		for id := int32(0); id < int32(e.seen.Len()); id++ {
			rule, key := e.seen.Tag(id), e.seen.Tuple(id)
			if want[rule] {
				t.Errorf("%v: unique rule %d's trigger %v entered the identity set", v, rule, key)
			}
			perRule[rule]++
			k := fmt.Sprint(rule, key)
			if keys[k] {
				t.Errorf("%v: trigger %s queued twice", v, k)
			}
			keys[k] = true
			if got, found := e.seen.Lookup(rule, key); !found || got != id {
				t.Errorf("%v: trigger %d (%s): Lookup = (%d, %v)", v, id, k, got, found)
			}
		}
		total := 0
		for ri, n := range perRule {
			total += n
			if n == 0 {
				t.Errorf("%v: rule %d queued no trigger", v, ri)
			}
		}
		if total != e.stats.TriggersEnqueued {
			t.Errorf("%v: %d set members plus unique anchors, %d enqueued", v, total, e.stats.TriggersEnqueued)
		}
	}
}

// TestProbedTriggersStillDeduplicate: a semi-oblivious rule whose
// frontier drops a body variable, and a two-atom body whose homomorphism
// is found through both of its anchors, still queue each key once.
func TestProbedTriggersStillDeduplicate(t *testing.T) {
	// e(a,b), e(a,c) share the frontier a; e(b,c) gives b.
	e := runEngine(t, `e(a,b). e(a,c). e(b,c).`, `e(X,Y) -> r(X).`, SemiOblivious)
	if n := e.stats.TriggersEnqueued; n != 2 {
		t.Errorf("frontier-dropping rule: %d triggers enqueued, want 2", n)
	}
	// q(a) derives e(a,a), which anchors both body atoms of the second
	// rule in the same homomorphism X=Y=Z=a.
	for _, v := range []Variant{Oblivious, SemiOblivious, Restricted} {
		e := runEngine(t, `q(a).`, "q(X) -> e(X,X).\ne(X,Y), e(Y,Z) -> p(X,Z).", v)
		if n := e.stats.TriggersEnqueued; n != 2 {
			t.Errorf("%v: two-atom body: %d triggers enqueued, want 2", v, n)
		}
	}
}
