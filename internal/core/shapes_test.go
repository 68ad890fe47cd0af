package core

import (
	"context"
	"strings"
	"testing"

	"chaseterm/internal/chase"
	"chaseterm/internal/parse"
)

// TestShapesEnumeration: the reachable-shape listing for Example 2 —
// p(✶,✶), then p(✶,n1) (invented second argument), then p(n1,n2).
func TestShapesEnumeration(t *testing.T) {
	rs := parse.MustParseRules(`p(X,Y) -> p(Y,Z).`)
	res, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"p(✶,✶)":   true,
		"p(✶,n1)":  true,
		"p(n1,n2)": true,
	}
	if len(res.Shapes) != len(want) {
		t.Fatalf("shapes: %v", res.Shapes)
	}
	for _, s := range res.Shapes {
		if !want[s] {
			t.Errorf("unexpected shape %s", s)
		}
	}
	if res.Verdict.ShapeCount != 3 {
		t.Errorf("ShapeCount: %d", res.Verdict.ShapeCount)
	}
}

// TestShapesWithEqualities: the repeated-variable body only matches shapes
// with equal classes, so p(X,X) -> p(X,Z) reaches exactly two shapes.
func TestShapesWithEqualities(t *testing.T) {
	rs := parse.MustParseRules(`p(X,X) -> p(X,Z).`)
	res, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shapes) != 2 {
		t.Fatalf("shapes: %v", res.Shapes)
	}
}

// TestShapesWithConstants: constants appear as marked classes and split
// the seed shapes.
func TestShapesWithConstants(t *testing.T) {
	rs := parse.MustParseRules(`p(X,0) -> q(X).`)
	res, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Seeds: p over {✶,0}² = 4 shapes, q over {✶,0} = 2 shapes; no new
	// shapes (head reuses frontier terms only).
	if len(res.Shapes) != 6 {
		t.Fatalf("shapes (%d): %v", len(res.Shapes), res.Shapes)
	}
	joined := strings.Join(res.Shapes, " ")
	if !strings.Contains(joined, "p(0,0)") || !strings.Contains(joined, "p(✶,0)") {
		t.Errorf("missing constant seed shapes: %v", res.Shapes)
	}
}

// TestWitnessMentionsShapes: non-termination witnesses carry the pumpable
// cycle in shape notation.
func TestWitnessMentionsShapes(t *testing.T) {
	rs := parse.MustParseRules(`p(X,Y) -> p(Y,Z).`)
	res, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Verdict.Witness
	if !strings.Contains(w, "pumpable shape cycle") || !strings.Contains(w, "p(n1,n2)") {
		t.Errorf("witness: %s", w)
	}
}

// TestGuardedWitnessMentionsTypes: guarded witnesses render node types.
func TestGuardedWitnessMentionsTypes(t *testing.T) {
	rs := parse.MustParseRules(`g(X,Y), gate(X) -> g(Y,Z), gate(Y).`)
	res, err := DecideGuardedContext(context.Background(), rs, chase.SemiOblivious, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer != NonTerminating {
		t.Fatal("expected non-termination")
	}
	w := res.Witness
	if !strings.Contains(w, "node-type cycle") || !strings.Contains(w, "g(") {
		t.Errorf("witness: %s", w)
	}
}

// TestAnswerAndVariantStrings covers the enum stringers.
func TestAnswerAndVariantStrings(t *testing.T) {
	if Terminating.String() != "terminating" || NonTerminating.String() != "non-terminating" || Unknown.String() != "unknown" {
		t.Error("Answer strings wrong")
	}
	if chase.Oblivious.String() != "oblivious" || chase.SemiOblivious.String() != "semi-oblivious" {
		t.Error("variant strings wrong")
	}
}

// TestDecideSimpleLinearErrors: non-SL and constant-bearing inputs are
// rejected by the fast path.
func TestDecideSimpleLinearErrors(t *testing.T) {
	if _, err := DecideSimpleLinear(parse.MustParseRules(`p(X,X) -> q(X).`), chase.SemiOblivious); err == nil {
		t.Error("non-simple rule accepted")
	}
	if _, err := DecideSimpleLinear(parse.MustParseRules(`p(X,0) -> q(X).`), chase.SemiOblivious); err == nil {
		t.Error("constants accepted")
	}
}
