package chase

import (
	"context"
	"testing"

	"chaseterm/internal/parse"
)

// TestRestrictedOrderSeparation demonstrates why the paper distinguishes
// ∀-SEQUENCE and ∃-SEQUENCE termination for the restricted chase (they
// coincide for the oblivious and semi-oblivious chase, §2):
//
//	σ1: r(X,Y) → ∃Z r(Y,Z)        (inventing)
//	σ2: r(X,Y) → r(Y,X)           (repairing)
//
// On D = {r(a,b)}: applying σ2 first yields r(b,a), after which every
// σ1-trigger is satisfied (r(Y,·) exists for Y ∈ {a,b}) — a terminating
// restricted sequence exists. A σ1-eager order keeps inventing fresh
// values whose σ1-triggers are unsatisfied — a non-terminating (fair, when
// FIFO) restricted sequence also exists.
func TestRestrictedOrderSeparation(t *testing.T) {
	rules := parse.MustParseRules(`r(X,Y) -> r(Y,Z).
r(X,Y) -> r(Y,X).`)
	db := parse.MustParseFacts(`r(a,b).`)

	// Rule-priority with σ2 first: reorder by swapping rule indexes.
	swapped := parse.MustParseRules(`r(X,Y) -> r(Y,X).
r(X,Y) -> r(Y,Z).`)
	res, err := RunFromAtomsContext(context.Background(), db, swapped, Restricted, Options{Order: OrderRulePriority, MaxTriggers: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Terminated {
		t.Errorf("repair-first restricted chase should terminate, got %v after %d triggers",
			res.Outcome, res.Stats.TriggersApplied)
	}

	// Invent-first priority diverges.
	db2 := parse.MustParseFacts(`r(a,b).`)
	res, err = RunFromAtomsContext(context.Background(), db2, rules, Restricted, Options{Order: OrderRulePriority, MaxTriggers: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == Terminated {
		t.Errorf("invent-first restricted chase should diverge, terminated after %d triggers",
			res.Stats.TriggersApplied)
	}

	// The oblivious chase is order-insensitive for termination: both rule
	// orders diverge (σ1 fires for every homomorphism regardless).
	for _, rs := range []string{
		"r(X,Y) -> r(Y,Z).\nr(X,Y) -> r(Y,X).",
		"r(X,Y) -> r(Y,X).\nr(X,Y) -> r(Y,Z).",
	} {
		db := parse.MustParseFacts(`r(a,b).`)
		res, err := RunFromAtomsContext(context.Background(), db, parse.MustParseRules(rs), Oblivious,
			Options{Order: OrderRulePriority, MaxTriggers: 300})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == Terminated {
			t.Error("oblivious chase must diverge under every order")
		}
	}
}

// TestOrdersProduceSameSemiObliviousResult: for the semi-oblivious chase,
// every order yields the same final instance on terminating inputs (the
// result is the least fixpoint of the Skolemized rules).
func TestOrdersProduceSameSemiObliviousResult(t *testing.T) {
	rules := parse.MustParseRules(`e(X,Y) -> r(X,Z), r(Z,Y).
r(X,Y) -> s(Y).`)
	var want []string
	for i, ord := range []Order{OrderFIFO, OrderLIFO, OrderRulePriority} {
		db := parse.MustParseFacts(`e(a,b). e(b,c).`)
		res, err := RunFromAtomsContext(context.Background(), db, rules, SemiOblivious, Options{Order: ord})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != Terminated {
			t.Fatalf("%v: not terminated", ord)
		}
		got := res.Instance.Strings()
		if i == 0 {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d facts, want %d", ord, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("%v: fact %d = %s, want %s", ord, j, got[j], want[j])
			}
		}
	}
}

// TestLIFOOnTerminatingInput: LIFO explores depth-first but must reach the
// same saturation.
func TestLIFOOnTerminatingInput(t *testing.T) {
	rules := parse.MustParseRules(`p(X) -> q(X).
q(X) -> r(X).`)
	db := parse.MustParseFacts(`p(a). p(b).`)
	res, err := RunFromAtomsContext(context.Background(), db, rules, SemiOblivious, Options{Order: OrderLIFO})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Terminated || res.Instance.Size() != 6 {
		t.Errorf("outcome %v size %d", res.Outcome, res.Instance.Size())
	}
}

func TestOrderStrings(t *testing.T) {
	if OrderFIFO.String() != "fifo" || OrderLIFO.String() != "lifo" || OrderRulePriority.String() != "rule-priority" {
		t.Error("order strings wrong")
	}
}
