package chase

import (
	"context"
	"reflect"
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
// restricted sequence exists, and the sequence search finds it. The fair
// FIFO chase considers σ1's trigger first and keeps inventing fresh
// values whose σ1-triggers are unsatisfied — a non-terminating fair
// restricted sequence also exists.
func TestRestrictedOrderSeparation(t *testing.T) {
	rules := parse.MustParseRules(`r(X,Y) -> r(Y,Z).
r(X,Y) -> r(Y,X).`)
	res, err := RunFromAtomsContext(context.Background(), parse.MustParseFacts(`r(a,b).`), rules, Restricted, Options{MaxTriggers: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == Terminated {
		t.Errorf("fair restricted chase should diverge, terminated after %d triggers",
			res.Stats.TriggersApplied)
	}

	exp, err := ExploreRestrictedTermination(parse.MustParseFacts(`r(a,b).`), rules, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !exp.Found || !reflect.DeepEqual(exp.Trace, []int{1}) {
		t.Errorf("sequence search: found %v, trace %v; want the repair-first sequence [1]", exp.Found, exp.Trace)
	}

	// The oblivious chase is order-insensitive for termination: both rule
	// orders diverge (σ1 fires for every homomorphism regardless).
	for _, rs := range []string{
		"r(X,Y) -> r(Y,Z).\nr(X,Y) -> r(Y,X).",
		"r(X,Y) -> r(Y,X).\nr(X,Y) -> r(Y,Z).",
	} {
		db := parse.MustParseFacts(`r(a,b).`)
		res, err := RunFromAtomsContext(context.Background(), db, parse.MustParseRules(rs), Oblivious,
			Options{MaxTriggers: 300})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == Terminated {
			t.Error("oblivious chase must diverge under every order")
		}
	}
}
