package chase

import (
	"context"
	"testing"

	"chaseterm/internal/instance"
)

// TestEngineIndexesOnlyProbedColumns: on the seed-22 DL-Lite case of
// TestRestrictedHeadPlanDigests, whose rules all have one body atom and
// no constants, the oblivious and semi-oblivious engines probe no
// column, so the instance keeps no posting index at all. The restricted
// engine compiles a head pattern only for the rules with an existential
// variable — a full rule's head is checked by lookup — and indexes
// exactly the columns their seeded plans probe: position 0 of the role
// atom r(X,Y), which the frontier X binds; and in a qualified
// existential's head r(X,Y), c(Y) also c's position, which r(X,Y) binds.
// A head pattern is never anchored, so no column is indexed for a plan
// anchored at c(Y).
func TestEngineIndexesOnlyProbedColumns(t *testing.T) {
	rules, db := scaleOntologyCase(22, 448)
	for _, v := range []Variant{Oblivious, SemiOblivious, Restricted} {
		in, err := instance.FromAtoms(db)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(in, rules, v, Options{MaxFacts: 200_000, MaxTriggers: 400_000})
		if err != nil {
			t.Fatal(err)
		}
		want := map[[2]int]bool{}
		patterns, full := 0, 0
		for ri := range e.rules {
			cr := &e.rules[ri]
			if got, wantPat := cr.headPattern != nil, v == Restricted && cr.nExist > 0; got != wantPat {
				t.Fatalf("%v: rule %s has head pattern %v, want %v", v, cr.src, got, wantPat)
			}
			if cr.headPattern == nil {
				if cr.nExist == 0 {
					full++
				}
				continue
			}
			patterns++
			role := int(cr.head[0].pred)
			want[[2]int{role, 0}] = true
			if len(cr.head) == 2 {
				want[[2]int{int(cr.head[1].pred), 0}] = true
			}
		}
		res, err := e.RunContext(context.Background())
		if err != nil || res.Outcome != Terminated {
			t.Fatalf("%v: %v %v", v, res, err)
		}
		cols, indexed := 0, 0
		for p := range in.NumPreds() {
			for pos := range in.PredArity(instance.PredID(p)) {
				cols++
				got := in.Indexed(instance.PredID(p), pos)
				if got {
					indexed++
				}
				if got != want[[2]int{p, pos}] {
					t.Errorf("%v: column (%s, %d) indexed %v, want %v", v, in.PredName(instance.PredID(p)), pos, got, !got)
				}
			}
		}
		t.Logf("%v: %d of %d columns indexed, %d head patterns, %d full rules, index %d bytes",
			v, indexed, cols, patterns, full, in.IndexBytes())
		if v != Restricted && in.IndexBytes() != 0 {
			t.Errorf("%v: the posting index holds %d bytes, want none", v, in.IndexBytes())
		}
		if v == Restricted && (indexed == 0 || full == 0) {
			t.Errorf("restricted: %d columns indexed, %d full rules; the case must exercise both checks", indexed, full)
		}
	}
}
