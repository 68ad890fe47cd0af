package instance

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chaseterm/internal/logic"
)

// indexFixture is a random instance over three predicates of arities
// 1, 2 and 3 and a pool of five constants, all interned up front in a
// fixed order, so two fixtures built from the same seed agree on every
// predicate, term and fact id.
type indexFixture struct {
	preds  []PredID
	consts []TermID
	facts  [][]TermID // facts[i][0] is the predicate, the rest the arguments
}

var fixturePreds = []struct {
	name  string
	arity int
}{{"u", 1}, {"e", 2}, {"t", 3}}

func newIndexFixture(rng *rand.Rand, nFacts int) indexFixture {
	var fx indexFixture
	for range nFacts {
		pi := rng.Intn(len(fixturePreds))
		f := []TermID{TermID(pi)}
		for range fixturePreds[pi].arity {
			f = append(f, TermID(rng.Intn(5)))
		}
		fx.facts = append(fx.facts, f)
	}
	return fx
}

// build interns the fixture's vocabulary into a fresh instance.
func (fx *indexFixture) build() *Instance {
	in := New()
	fx.preds, fx.consts = nil, nil
	for _, p := range fixturePreds {
		fx.preds = append(fx.preds, in.Pred(p.name, p.arity))
	}
	for i := range 5 {
		fx.consts = append(fx.consts, in.Terms.Const(fmt.Sprintf("c%d", i)))
	}
	return in
}

// add stores facts [lo, hi) of the fixture.
func (fx *indexFixture) add(in *Instance, lo, hi int) {
	for _, f := range fx.facts[lo:hi] {
		args := make([]TermID, len(f)-1)
		for i, c := range f[1:] {
			args[i] = fx.consts[c]
		}
		in.Add(fx.preds[f[0]], args)
	}
}

// randomPattern draws one to three atoms over the fixture's predicates:
// each argument is a constant one time in five, else one of four
// variables, so atoms join and repeat variables. seeds is a prefix of
// the pattern's variables in order of first occurrence.
func randomPattern(rng *rand.Rand) (atoms []logic.Atom, seeds []logic.Variable) {
	vars := []logic.Variable{"X", "Y", "Z", "W"}
	var seen []logic.Variable
	for range 1 + rng.Intn(3) {
		p := fixturePreds[rng.Intn(len(fixturePreds))]
		args := make([]logic.Term, p.arity)
		for i := range args {
			if rng.Intn(5) == 0 {
				args[i] = logic.Constant(fmt.Sprintf("c%d", rng.Intn(5)))
				continue
			}
			v := vars[rng.Intn(len(vars))]
			args[i] = v
			if varIndexIn(seen, v) < 0 {
				seen = append(seen, v)
			}
		}
		atoms = append(atoms, logic.NewAtom(p.name, args...))
	}
	return atoms, seen[:rng.Intn(len(seen)+1)]
}

// enumerationLog runs every enumeration entry point over the pattern and
// records each binding, in order: FindHomsWith and HasHomWith from no
// binding and from initial bindings of every length over the constants
// — those past the seeds bind positions no plan probes, so their
// columns may be unindexed — and FindHomsAnchoredWith for every anchor
// and fact.
func enumerationLog(in *Instance, p *Pattern, consts []TermID) []TermID {
	var sc MatchScratch
	var log []TermID
	rec := func(b []TermID) bool {
		log = append(log, b...)
		log = append(log, -2)
		return true
	}
	for k := 0; k <= p.NumVars; k++ {
		for _, c := range consts {
			initial := make([]TermID, k)
			for i := range initial {
				initial[i] = consts[(int(c)+i)%len(consts)]
			}
			in.FindHomsWith(&sc, p, initial, rec)
			if in.HasHomWith(&sc, p, initial) {
				log = append(log, -3)
			}
		}
	}
	for a := range p.Atoms {
		for id := range FactID(in.Size()) {
			if in.Fact(id).Pred == p.Atoms[a].Pred {
				in.FindHomsAnchoredWith(&sc, p, a, id, rec)
				log = append(log, -4)
			}
		}
	}
	return log
}

// TestOnDemandIndexMatchesIndexAll: the matcher finds the same
// homomorphisms in the same order whichever columns are indexed. Each
// case compiles random patterns while half the facts are stored — the
// instance indexes the columns their plans probe and backfills them —
// then stores the rest, which Add links into those columns only. The
// enumerations must equal those of the same instance after IndexAll, and
// those of a twin whose columns were all indexed before its first fact.
func TestOnDemandIndexMatchesIndexAll(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fx := newIndexFixture(rng, 10+rng.Intn(40))
		half := len(fx.facts) / 2

		in := fx.build()
		fx.add(in, 0, half)
		var ps PatternSet
		var pats []*Pattern
		var srcs [][]logic.Atom
		var seedSets [][]logic.Variable
		for range 1 + rng.Intn(3) {
			atoms, seeds := randomPattern(rng)
			p, err := ps.Compile(in, atoms, seeds)
			if err != nil {
				t.Fatal(err)
			}
			pats, srcs, seedSets = append(pats, p), append(srcs, atoms), append(seedSets, seeds)
		}
		fx.add(in, half, len(fx.facts))

		all := fx.build()
		all.IndexAll()
		fx.add(all, 0, len(fx.facts))

		onDemand := make([][]TermID, len(pats))
		for i, p := range pats {
			onDemand[i] = enumerationLog(in, p, fx.consts)
		}
		in.IndexAll()
		for i, p := range pats {
			if got := enumerationLog(in, p, fx.consts); !reflect.DeepEqual(onDemand[i], got) {
				t.Fatalf("seed %d, pattern %v seeded %v: on demand and after IndexAll differ:\n%v\n%v",
					seed, srcs[i], seedSets[i], onDemand[i], got)
			}
			twin, err := (*PatternSet)(nil).Compile(all, srcs[i], seedSets[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := enumerationLog(all, twin, fx.consts); !reflect.DeepEqual(onDemand[i], got) {
				t.Fatalf("seed %d, pattern %v seeded %v: on demand and indexed from the start differ:\n%v\n%v",
					seed, srcs[i], seedSets[i], onDemand[i], got)
			}
		}
	}
}

// extentScan is ByPosTerm by brute force over the predicate's extent.
func extentScan(in *Instance, p PredID, pos int, term TermID) []FactID {
	var out []FactID
	for _, id := range in.ByPred(p) {
		if in.Fact(id).Args[pos] == term {
			out = append(out, id)
		}
	}
	return out
}

// TestByPosTermMatchesExtentScan: ByPosTerm returns the facts an extent
// scan finds, in insertion order, on indexed and unindexed columns alike.
func TestByPosTermMatchesExtentScan(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fx := newIndexFixture(rng, 60)
		in := fx.build()
		fx.add(in, 0, 30)
		in.IndexColumn(fx.preds[1], 1)
		in.IndexColumn(fx.preds[2], 0)
		fx.add(in, 30, 60)
		check := func(stage string) {
			indexed := 0
			for pi, p := range fx.preds {
				for pos := range fixturePreds[pi].arity {
					if in.Indexed(p, pos) {
						indexed++
					}
					for _, c := range fx.consts {
						if got, want := in.ByPosTerm(p, pos, c), extentScan(in, p, pos, c); !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d, %s: ByPosTerm(%s, %d, %s) = %v, scan %v",
								seed, stage, in.PredName(p), pos, in.Terms.String(c), got, want)
						}
					}
				}
			}
			if stage == "two columns" && indexed != 2 {
				t.Fatalf("seed %d: %d columns indexed, want 2", seed, indexed)
			}
		}
		check("two columns")
		in.IndexAll()
		check("all columns")
	}
}

// TestIndexColumnChainsInInsertionOrder: an instance keeps no posting
// index until a column is indexed; a column indexed after its facts
// exist chains them in insertion order, and facts added later extend
// the chains.
func TestIndexColumnChainsInInsertionOrder(t *testing.T) {
	in := New()
	e := in.Pred("e", 2)
	a, b, c := in.Terms.Const("a"), in.Terms.Const("b"), in.Terms.Const("c")
	var ids []FactID
	for _, args := range [][]TermID{{a, b}, {b, b}, {c, a}, {a, a}, {c, b}} {
		id, _ := in.Add(e, args)
		ids = append(ids, id)
	}
	if n := in.IndexBytes(); n != 0 {
		t.Fatalf("no column indexed, yet the index holds %d bytes", n)
	}
	if in.Indexed(e, 1) {
		t.Fatal("column indexed before IndexColumn")
	}
	if got := in.ByPosTerm(e, 2, b); got != nil {
		t.Fatalf("ByPosTerm past the arity = %v, want nil", got)
	}
	in.IndexColumn(e, 1)
	if !in.Indexed(e, 1) || in.Indexed(e, 0) || in.Indexed(e, 2) {
		t.Fatal("IndexColumn(e, 1) must index exactly (e, 1)")
	}
	if in.IndexBytes() == 0 {
		t.Fatal("an indexed column holds no index")
	}
	if got, want := in.ByPosTerm(e, 1, b), []FactID{ids[0], ids[1], ids[4]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("backfilled chain (e, 1, b) = %v, want %v", got, want)
	}
	id, _ := in.Add(e, []TermID{c, c})
	id2, _ := in.Add(e, []TermID{in.Terms.Const("d"), b})
	if got, want := in.ByPosTerm(e, 1, b), []FactID{ids[0], ids[1], ids[4], id2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("chain (e, 1, b) after adds = %v, want %v", got, want)
	}
	if got, want := in.ByPosTerm(e, 1, c), []FactID{id}; !reflect.DeepEqual(got, want) {
		t.Fatalf("chain (e, 1, c) = %v, want %v", got, want)
	}
	before := in.IndexBytes()
	in.IndexColumn(e, 1) // a second call only reads the flag
	if in.IndexBytes() != before || !reflect.DeepEqual(in.ByPosTerm(e, 1, b), []FactID{ids[0], ids[1], ids[4], id2}) {
		t.Fatal("indexing a column twice changed its chains")
	}
}

// TestCompileHeadIndexesOnlyUnanchoredPlan: Compile indexes the columns
// of every plan, CompileHead only those of the unanchored plan, which is
// the only plan a head check runs — also when the frontier is empty, as
// in the head q(Y), r(Y) of p(X) -> q(Y), r(Y).
func TestCompileHeadIndexesOnlyUnanchoredPlan(t *testing.T) {
	x, y := logic.Variable("X"), logic.Variable("Y")
	type col struct {
		pred string
		pos  int
	}
	for _, tc := range []struct {
		atoms      []logic.Atom
		frontier   []logic.Variable
		head, body []col
	}{
		// Seeded by X: r(X,Y) probes (r, 0), then c(Y) probes (c, 0);
		// anchored at c(Y), r(X,Y) would probe (r, 1).
		{[]logic.Atom{logic.NewAtom("r", x, y), logic.NewAtom("c", y)}, []logic.Variable{x},
			[]col{{"r", 0}, {"c", 0}}, []col{{"r", 0}, {"c", 0}, {"r", 1}}},
		// No seeds: q(Y) is scanned, then r(Y) probes (r, 0); anchored
		// at r(Y), q(Y) would probe (q, 0).
		{[]logic.Atom{logic.NewAtom("q", y), logic.NewAtom("r", y)}, nil,
			[]col{{"r", 0}}, []col{{"r", 0}, {"q", 0}}},
	} {
		for _, head := range []bool{true, false} {
			in := New()
			var err error
			want := tc.body
			if head {
				want = tc.head
				_, err = (*PatternSet)(nil).CompileHead(in, tc.atoms, tc.frontier)
			} else {
				_, err = (*PatternSet)(nil).Compile(in, tc.atoms, tc.frontier)
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []col
			for p := range in.NumPreds() {
				for pos := range in.PredArity(PredID(p)) {
					if in.Indexed(PredID(p), pos) {
						got = append(got, col{in.PredName(PredID(p)), pos})
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%v seeded %v, head %v: indexed %v, want %v", tc.atoms, tc.frontier, head, got, want)
			}
			for _, c := range want {
				p, _ := in.LookupPred(c.pred)
				if !in.Indexed(p, c.pos) {
					t.Errorf("%v seeded %v, head %v: indexed %v, want %v", tc.atoms, tc.frontier, head, got, want)
				}
			}
		}
	}
}
