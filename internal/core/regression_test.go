package core

import (
	"context"
	"testing"

	"chaseterm/internal/chase"
	"chaseterm/internal/parse"
)

// TestGuardedRecordReturnRegression pins the completeness bug found by the
// randomized Theorem 4 cross-validation: when descendant fired-records were
// returned to the parent, the re-spawned child inherited its own record and
// skipped its own trigger, losing the diverging subtree. The set below
// alternates the two rules forever (p1 values feed σ1, whose p0 atoms feed
// σ0, which creates fresh p1 values).
func TestGuardedRecordReturnRegression(t *testing.T) {
	rs := parse.MustParseRules(`p0(X0,X1) -> p1(Z0), p1(X1).
p1(X0) -> p1(X0), p0(Z0,X0).`)
	res, err := DecideGuardedContext(context.Background(), rs, chase.SemiOblivious, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer != NonTerminating {
		t.Errorf("want non-terminating, got %v (types=%d)", res.Answer, res.NodeTypeCount)
	}
}
