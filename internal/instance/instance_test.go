package instance

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"chaseterm/internal/logic"
)

func TestTermTableConsts(t *testing.T) {
	tt := NewTermTable()
	a := tt.Const("a")
	b := tt.Const("b")
	if a == b {
		t.Fatal("distinct constants interned equal")
	}
	if tt.Const("a") != a {
		t.Fatal("constant interning not stable")
	}
	if tt.Kind(a) != KindConst || tt.IsInvented(a) {
		t.Error("constant kind wrong")
	}
	if tt.String(a) != "a" {
		t.Errorf("String: %q", tt.String(a))
	}
	if id, ok := tt.LookupConst("a"); !ok || id != a {
		t.Error("LookupConst failed")
	}
	if _, ok := tt.LookupConst("zzz"); ok {
		t.Error("LookupConst invented a constant")
	}
}

func TestTermTableNulls(t *testing.T) {
	tt := NewTermTable()
	n1 := tt.FreshNull(1)
	n2 := tt.FreshNull(2)
	if n1 == n2 {
		t.Fatal("fresh nulls equal")
	}
	if tt.Kind(n1) != KindNull || !tt.IsInvented(n1) {
		t.Error("null kind wrong")
	}
	if tt.Depth(n2) != 2 {
		t.Errorf("depth: %d", tt.Depth(n2))
	}
}

func TestTermTableSkolem(t *testing.T) {
	tt := NewTermTable()
	a := tt.Const("a")
	s1 := tt.Skolem(tt.SkolemFn("f"), []TermID{a})
	s2 := tt.Skolem(tt.SkolemFn("f"), []TermID{a})
	if s1 != s2 {
		t.Fatal("equal Skolem terms interned differently")
	}
	s3 := tt.Skolem(tt.SkolemFn("f"), []TermID{s1})
	if s3 == s1 {
		t.Fatal("nested Skolem term interned as its argument")
	}
	if tt.Depth(s1) != 1 || tt.Depth(s3) != 2 {
		t.Errorf("depths: %d %d", tt.Depth(s1), tt.Depth(s3))
	}
	if tt.String(s3) != "f(f(a))" {
		t.Errorf("String: %s", tt.String(s3))
	}
	if g := tt.Skolem(tt.SkolemFn("g"), []TermID{a}); g == s1 {
		t.Error("different functions interned equal")
	}
	args := tt.SkolemArgs(s3)
	if len(args) != 1 || args[0] != s1 {
		t.Errorf("SkolemArgs: %v", args)
	}
}

// TestStoreViewsAreCapped: Fact, TupleSet.Tuple and SkolemArgs hand out
// views of shared arenas. Each is capped at its own length, so an append
// by a careless caller copies instead of overwriting the next member.
func TestStoreViewsAreCapped(t *testing.T) {
	in := New()
	p := in.Pred("p", 2)
	a, b := in.Terms.Const("a"), in.Terms.Const("b")
	in.Add(p, []TermID{a, a})
	in.Add(p, []TermID{b, b})
	_ = append(in.Fact(0).Args, b)
	var s TupleSet
	s.Insert(0, []TermID{a, a})
	s.Insert(0, []TermID{b, b})
	_ = append(s.Tuple(0), a)
	fn := in.Terms.SkolemFn("f")
	s1 := in.Terms.Skolem(fn, []TermID{a})
	s2 := in.Terms.Skolem(fn, []TermID{b})
	_ = append(in.Terms.SkolemArgs(s1), a)
	if got := in.Fact(1).Args; got[0] != b {
		t.Errorf("fact 1 = %v after appending to fact 0's view", got)
	}
	if got := s.Tuple(1); got[0] != b {
		t.Errorf("tuple 1 = %v after appending to tuple 0's view", got)
	}
	if got := in.Terms.SkolemArgs(s2); got[0] != b {
		t.Errorf("SkolemArgs = %v after appending to a neighbour's view", got)
	}
}

func TestInstanceAddContains(t *testing.T) {
	in := New()
	p := in.Pred("p", 2)
	a, b := in.Terms.Const("a"), in.Terms.Const("b")
	id1, added := in.Add(p, []TermID{a, b})
	if !added {
		t.Fatal("first Add not added")
	}
	id2, added := in.Add(p, []TermID{a, b})
	if added || id1 != id2 {
		t.Fatal("duplicate Add not deduplicated")
	}
	if !in.Contains(p, []TermID{a, b}) || in.Contains(p, []TermID{b, a}) {
		t.Error("Contains wrong")
	}
	if in.Size() != 1 {
		t.Errorf("Size: %d", in.Size())
	}
	if in.FactString(id1) != "p(a,b)" {
		t.Errorf("FactString: %s", in.FactString(id1))
	}
}

func TestInstanceIndexes(t *testing.T) {
	in := New()
	p := in.Pred("p", 2)
	a, b, c := in.Terms.Const("a"), in.Terms.Const("b"), in.Terms.Const("c")
	in.Add(p, []TermID{a, b})
	in.Add(p, []TermID{a, c})
	in.Add(p, []TermID{b, c})
	if got := len(in.ByPred(p)); got != 3 {
		t.Errorf("ByPred: %d", got)
	}
	if got := len(in.ByPosTerm(p, 0, a)); got != 2 {
		t.Errorf("ByPosTerm(p,0,a): %d", got)
	}
	if got := len(in.ByPosTerm(p, 1, c)); got != 2 {
		t.Errorf("ByPosTerm(p,1,c): %d", got)
	}
	if got := len(in.ByPosTerm(p, 1, a)); got != 0 {
		t.Errorf("ByPosTerm(p,1,a): %d", got)
	}
}

func TestInstancePredArityPanic(t *testing.T) {
	in := New()
	in.Pred("p", 2)
	defer func() {
		if recover() == nil {
			t.Error("arity clash did not panic")
		}
	}()
	in.Pred("p", 3)
}

func TestFromAtoms(t *testing.T) {
	in, err := FromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.Constant("a"), logic.Constant("b")),
		logic.NewAtom("q", logic.Constant("a")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Size() != 2 {
		t.Errorf("size: %d", in.Size())
	}
	if _, err := FromAtoms([]logic.Atom{logic.NewAtom("p", logic.Variable("X"))}); err == nil {
		t.Error("non-ground atom accepted")
	}
}

func mustCompile(t *testing.T, in *Instance, atoms []logic.Atom) *Pattern {
	t.Helper()
	p, err := CompileBody(in, atoms)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFindHomsSingleAtom(t *testing.T) {
	in := New()
	p := in.Pred("p", 2)
	a, b, c := in.Terms.Const("a"), in.Terms.Const("b"), in.Terms.Const("c")
	in.Add(p, []TermID{a, b})
	in.Add(p, []TermID{b, c})
	in.Add(p, []TermID{a, a})

	pat := mustCompile(t, in, []logic.Atom{logic.NewAtom("p", logic.Variable("X"), logic.Variable("Y"))})
	if n := in.CountHoms(pat); n != 3 {
		t.Errorf("p(X,Y): %d homs", n)
	}
	// Repeated variable: only p(a,a).
	pat2 := mustCompile(t, in, []logic.Atom{logic.NewAtom("p", logic.Variable("X"), logic.Variable("X"))})
	if n := in.CountHoms(pat2); n != 1 {
		t.Errorf("p(X,X): %d homs", n)
	}
	// Constant slot.
	pat3 := mustCompile(t, in, []logic.Atom{logic.NewAtom("p", logic.Constant("a"), logic.Variable("Y"))})
	if n := in.CountHoms(pat3); n != 2 {
		t.Errorf("p(a,Y): %d homs", n)
	}
}

func TestFindHomsJoin(t *testing.T) {
	in := New()
	e := in.Pred("e", 2)
	cs := make([]TermID, 5)
	for i := range cs {
		cs[i] = in.Terms.Const(string(rune('a' + i)))
	}
	// A path a->b->c->d->e.
	for i := 0; i+1 < len(cs); i++ {
		in.Add(e, []TermID{cs[i], cs[i+1]})
	}
	pat := mustCompile(t, in, []logic.Atom{
		logic.NewAtom("e", logic.Variable("X"), logic.Variable("Y")),
		logic.NewAtom("e", logic.Variable("Y"), logic.Variable("Z")),
	})
	if n := in.CountHoms(pat); n != 3 {
		t.Errorf("length-2 paths: %d, want 3", n)
	}
	// Triangle query on a path: none.
	pat2 := mustCompile(t, in, []logic.Atom{
		logic.NewAtom("e", logic.Variable("X"), logic.Variable("Y")),
		logic.NewAtom("e", logic.Variable("Y"), logic.Variable("Z")),
		logic.NewAtom("e", logic.Variable("Z"), logic.Variable("X")),
	})
	if n := in.CountHoms(pat2); n != 0 {
		t.Errorf("triangles: %d", n)
	}
}

func TestFindHomsInitialBinding(t *testing.T) {
	in := New()
	p := in.Pred("p", 2)
	a, b := in.Terms.Const("a"), in.Terms.Const("b")
	in.Add(p, []TermID{a, b})
	in.Add(p, []TermID{b, b})
	pat := mustCompile(t, in, []logic.Atom{logic.NewAtom("p", logic.Variable("X"), logic.Variable("Y"))})
	init := []TermID{a} // X = a
	n := 0
	in.FindHoms(pat, init, func([]TermID) bool { n++; return true })
	if n != 1 {
		t.Errorf("bound X=a: %d homs", n)
	}
	if !in.HasHom(pat, init) {
		t.Error("HasHom with initial binding failed")
	}
}

// TestSeededPlanStartsAtSeed: the unanchored plan of a seeded pattern
// treats the seed variables as bound. For the head r(X,Y), c(Y) of a
// qualified existential with frontier X, the plan must walk the r edges
// out of the bound X and probe c(y) per edge, instead of scanning the
// whole c extent, wherever the seeded atom sits in the pattern. Anchored
// enumerations never see the seed binding, so their plans ignore it.
func TestSeededPlanStartsAtSeed(t *testing.T) {
	in := New()
	x, y := logic.Variable("X"), logic.Variable("Y")
	r, c := logic.NewAtom("r", x, y), logic.NewAtom("c", y)
	for _, tc := range []struct {
		atoms []logic.Atom
		want  [][]int32
	}{
		{[]logic.Atom{r, c}, [][]int32{{0, 1}, {1}, {0}}},
		{[]logic.Atom{c, r}, [][]int32{{1, 0}, {1}, {0}}},
	} {
		p, err := (*PatternSet)(nil).Compile(in, tc.atoms, []logic.Variable{x})
		if err != nil {
			t.Fatal(err)
		}
		if p.seeds != 1 {
			t.Errorf("%v: seeds = %d, want 1", tc.atoms, p.seeds)
		}
		if !reflect.DeepEqual(p.plans, tc.want) {
			t.Errorf("%v seeded by X: plans %v, want %v", tc.atoms, p.plans, tc.want)
		}
	}
}

// TestUnseededPlansUnchanged pins the plans of unseeded patterns: the
// greedy selectivity order, ties broken toward fewer free variables and
// then the lower index.
func TestUnseededPlansUnchanged(t *testing.T) {
	in := New()
	x, y, z := logic.Variable("X"), logic.Variable("Y"), logic.Variable("Z")
	for _, tc := range []struct {
		atoms []logic.Atom
		want  [][]int32
	}{
		{[]logic.Atom{logic.NewAtom("r", x, y), logic.NewAtom("c", y)}, [][]int32{{1, 0}, {1}, {0}}},
		{[]logic.Atom{logic.NewAtom("e", x, y), logic.NewAtom("e", y, z)}, [][]int32{{0, 1}, {1}, {0}}},
		{[]logic.Atom{logic.NewAtom("e", x, y), logic.NewAtom("e", y, z), logic.NewAtom("e", z, x)},
			[][]int32{{0, 1, 2}, {1, 2}, {0, 2}, {0, 1}}},
		{[]logic.Atom{logic.NewAtom("e", x, y), logic.NewAtom("e", y, logic.Constant("k"))},
			[][]int32{{1, 0}, {1}, {0}}},
	} {
		p := mustCompile(t, in, tc.atoms)
		if p.seeds != 0 {
			t.Errorf("%v: seeds = %d, want 0", tc.atoms, p.seeds)
		}
		if !reflect.DeepEqual(p.plans, tc.want) {
			t.Errorf("%v: plans %v, want %v", tc.atoms, p.plans, tc.want)
		}
	}
}

func TestFindHomsAnchored(t *testing.T) {
	in := New()
	p := in.Pred("p", 2)
	a, b, c := in.Terms.Const("a"), in.Terms.Const("b"), in.Terms.Const("c")
	f1, _ := in.Add(p, []TermID{a, b})
	in.Add(p, []TermID{b, c})
	pat := mustCompile(t, in, []logic.Atom{
		logic.NewAtom("p", logic.Variable("X"), logic.Variable("Y")),
		logic.NewAtom("p", logic.Variable("Y"), logic.Variable("Z")),
	})
	// Anchor atom 0 to p(a,b): exactly the hom (a,b,c).
	n := 0
	in.FindHomsAnchored(pat, 0, f1, func(bind []TermID) bool {
		n++
		if bind[0] != a || bind[1] != b || bind[2] != c {
			t.Errorf("binding: %v", bind)
		}
		return true
	})
	if n != 1 {
		t.Errorf("anchored homs: %d", n)
	}
	// Anchor atom 1 to p(a,b): needs p(?,a) — none.
	n = 0
	in.FindHomsAnchored(pat, 1, f1, func([]TermID) bool { n++; return true })
	if n != 0 {
		t.Errorf("anchored homs at pos 1: %d", n)
	}
}

func TestFindHomsEarlyStop(t *testing.T) {
	in := New()
	p := in.Pred("p", 1)
	for i := 0; i < 10; i++ {
		in.Add(p, []TermID{in.Terms.Const(string(rune('a' + i)))})
	}
	pat := mustCompile(t, in, []logic.Atom{logic.NewAtom("p", logic.Variable("X"))})
	n := 0
	complete := in.FindHoms(pat, nil, func([]TermID) bool { n++; return n < 3 })
	if complete {
		t.Error("enumeration reported complete despite early stop")
	}
	if n != 3 {
		t.Errorf("early stop after %d", n)
	}
}

// TestFindHomsQuickVsNaive cross-validates the indexed backtracking join
// against a brute-force nested-loop enumeration on random instances and
// random 2-atom patterns.
func TestFindHomsQuickVsNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := New()
		p := in.Pred("p", 2)
		q := in.Pred("q", 2)
		consts := make([]TermID, 4)
		for i := range consts {
			consts[i] = in.Terms.Const(string(rune('a' + i)))
		}
		for i := 0; i < 8; i++ {
			pr := p
			if rng.Intn(2) == 0 {
				pr = q
			}
			in.Add(pr, []TermID{consts[rng.Intn(4)], consts[rng.Intn(4)]})
		}
		// Pattern p(X,Y), q(Y,Z) — count via matcher and via nested loops.
		pat, err := CompileBody(in, []logic.Atom{
			logic.NewAtom("p", logic.Variable("X"), logic.Variable("Y")),
			logic.NewAtom("q", logic.Variable("Y"), logic.Variable("Z")),
		})
		if err != nil {
			return false
		}
		got := in.CountHoms(pat)
		want := 0
		for _, f1 := range in.ByPred(p) {
			for _, f2 := range in.ByPred(q) {
				if in.Fact(f1).Args[1] == in.Fact(f2).Args[0] {
					want++
				}
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMaxInventedDepth(t *testing.T) {
	in := New()
	p := in.Pred("p", 1)
	a := in.Terms.Const("a")
	in.Add(p, []TermID{a})
	if in.MaxInventedDepth() != 0 {
		t.Error("constant-only instance has depth > 0")
	}
	s := in.Terms.Skolem(in.Terms.SkolemFn("f"), []TermID{a})
	s2 := in.Terms.Skolem(in.Terms.SkolemFn("f"), []TermID{s})
	in.Add(p, []TermID{s2})
	if in.MaxInventedDepth() != 2 {
		t.Errorf("depth: %d", in.MaxInventedDepth())
	}
}

func TestStringsSorted(t *testing.T) {
	in := New()
	p := in.Pred("p", 1)
	b := in.Terms.Const("b")
	a := in.Terms.Const("a")
	in.Add(p, []TermID{b})
	in.Add(p, []TermID{a})
	got := in.Strings()
	if got[0] != "p(a)" || got[1] != "p(b)" {
		t.Errorf("Strings: %v", got)
	}
}
