package logic

import (
	"slices"
	"sync"
	"testing"
)

func atom(pred string, args ...Term) Atom { return NewAtom(pred, args...) }

func v(s string) Variable { return Variable(s) }
func c(s string) Constant { return Constant(s) }

func TestAtomBasics(t *testing.T) {
	a := atom("p", v("X"), c("a"), v("X"))
	if got := a.String(); got != "p(X,a,X)" {
		t.Errorf("String: got %q", got)
	}
	if a.Predicate() != (Predicate{Name: "p", Arity: 3}) {
		t.Errorf("Predicate: got %v", a.Predicate())
	}
	if a.IsGround() {
		t.Error("IsGround: atom with variables reported ground")
	}
	if !a.HasRepeatedVariable() {
		t.Error("HasRepeatedVariable: X repeats")
	}
	vs := a.Variables(nil)
	if len(vs) != 1 || vs[0] != "X" {
		t.Errorf("Variables: got %v", vs)
	}
	cs := a.Constants(nil)
	if len(cs) != 1 || cs[0] != "a" {
		t.Errorf("Constants: got %v", cs)
	}
	g := atom("p", c("a"))
	if !g.IsGround() {
		t.Error("IsGround: constant atom reported non-ground")
	}
}

func TestAtomRenameAndEqual(t *testing.T) {
	a := atom("p", v("X"), v("Y"))
	b := a.Rename(map[Variable]Variable{"X": "U"})
	if b.String() != "p(U,Y)" {
		t.Errorf("Rename: got %s", b)
	}
	if !a.Equal(atom("p", v("X"), v("Y"))) {
		t.Error("Equal: identical atoms differ")
	}
	if a.Equal(b) {
		t.Error("Equal: renamed atom equal to original")
	}
	if a.Equal(atom("q", v("X"), v("Y"))) {
		t.Error("Equal: different predicates equal")
	}
}

func TestTGDAnalysis(t *testing.T) {
	// p(X,Y), q(Y) -> r(Y,Z), s(Z)
	r := NewTGD(
		[]Atom{atom("p", v("X"), v("Y")), atom("q", v("Y"))},
		[]Atom{atom("r", v("Y"), v("Z")), atom("s", v("Z"))},
	)
	wantVars := []Variable{"X", "Y"}
	if got := r.BodyVariables(); len(got) != 2 || got[0] != wantVars[0] || got[1] != wantVars[1] {
		t.Errorf("BodyVariables: got %v", got)
	}
	if got := r.Frontier(); len(got) != 1 || got[0] != "Y" {
		t.Errorf("Frontier: got %v", got)
	}
	if got := r.Existentials(); len(got) != 1 || got[0] != "Z" {
		t.Errorf("Existentials: got %v", got)
	}
	if r.IsFull() {
		t.Error("IsFull: rule has an existential")
	}
	if r.IsLinear() {
		t.Error("IsLinear: two body atoms")
	}
	if !r.IsGuarded() {
		t.Error("IsGuarded: p(X,Y) holds every universal variable")
	}
	ng := NewTGD(
		[]Atom{atom("p", v("X")), atom("q", v("Y"))},
		[]Atom{atom("r", v("X"), v("Y"))},
	)
	if ng.IsGuarded() {
		t.Error("IsGuarded: no atom holds X and Y together")
	}
}

func TestTGDGuard(t *testing.T) {
	// p(X,Y) guards {X,Y}; q(Y) is a side atom.
	r := NewTGD(
		[]Atom{atom("q", v("Y")), atom("p", v("X"), v("Y"))},
		[]Atom{atom("r", v("X"))},
	)
	if !r.IsGuarded() {
		t.Fatal("IsGuarded: p(X,Y) guards all variables")
	}
	if gi := r.GuardIndex(); gi != 1 {
		t.Errorf("GuardIndex: got %d, want 1", gi)
	}
	if r.IsLinear() || r.IsSimpleLinear() {
		t.Error("two-atom body is not linear")
	}
}

func TestTGDClasses(t *testing.T) {
	sl := NewTGD([]Atom{atom("p", v("X"), v("Y"))}, []Atom{atom("q", v("Y"), v("Z"))})
	if !sl.IsSimpleLinear() || !sl.IsLinear() || !sl.IsGuarded() {
		t.Error("simple-linear rule misclassified")
	}
	lin := NewTGD([]Atom{atom("p", v("X"), v("X"))}, []Atom{atom("q", v("X"))})
	if lin.IsSimpleLinear() {
		t.Error("repeated body variable is not simple")
	}
	if !lin.IsLinear() {
		t.Error("one body atom is linear")
	}
	full := NewTGD([]Atom{atom("p", v("X"))}, []Atom{atom("q", v("X"))})
	if !full.IsFull() {
		t.Error("IsFull: no existentials")
	}
}

func TestRuleSetClassify(t *testing.T) {
	cases := []struct {
		rules *RuleSet
		want  Class
	}{
		{NewRuleSet(NewTGD([]Atom{atom("p", v("X"))}, []Atom{atom("q", v("X"))})), ClassSimpleLinear},
		{NewRuleSet(NewTGD([]Atom{atom("p", v("X"), v("X"))}, []Atom{atom("q", v("X"))})), ClassLinear},
		{NewRuleSet(
			NewTGD([]Atom{atom("p", v("X"), v("Y")), atom("q", v("X"))}, []Atom{atom("r", v("Y"))}),
		), ClassGuarded},
		{NewRuleSet(
			NewTGD([]Atom{atom("p", v("X")), atom("q", v("Y"))}, []Atom{atom("r", v("X"), v("Y"))}),
		), ClassGeneral},
	}
	for i, tc := range cases {
		if got := tc.rules.Classify(); got != tc.want {
			t.Errorf("case %d: Classify got %v, want %v", i, got, tc.want)
		}
	}
}

func TestClassOrdering(t *testing.T) {
	if !ClassGuarded.Includes(ClassSimpleLinear) || !ClassGuarded.Includes(ClassLinear) {
		t.Error("G must include SL and L")
	}
	if !ClassLinear.Includes(ClassSimpleLinear) {
		t.Error("L must include SL")
	}
	if ClassSimpleLinear.Includes(ClassLinear) {
		t.Error("SL must not include L")
	}
}

func TestRuleSetValidate(t *testing.T) {
	bad := NewRuleSet(
		NewTGD([]Atom{atom("p", v("X"))}, []Atom{atom("p", v("X"), v("X"))}),
	)
	if err := bad.Validate(); err == nil {
		t.Error("Validate: arity clash not detected")
	}
	empty := NewRuleSet(NewTGD(nil, []Atom{atom("p", v("X"))}))
	if err := empty.Validate(); err == nil {
		t.Error("Validate: empty body not detected")
	}
	noHead := NewRuleSet(NewTGD([]Atom{atom("p", v("X"))}, nil))
	if err := noHead.Validate(); err == nil {
		t.Error("Validate: empty head not detected")
	}
}

func TestRuleSetSchemaAndPositions(t *testing.T) {
	rs := NewRuleSet(
		NewTGD([]Atom{atom("p", v("X"), v("Y"))}, []Atom{atom("q", v("Y"))}),
		NewTGD([]Atom{atom("q", v("X"))}, []Atom{atom("p", v("X"), c("a"))}),
	)
	sch := rs.Schema()
	if len(sch) != 2 || sch[0].Name != "p" || sch[1].Name != "q" {
		t.Errorf("Schema: got %v", sch)
	}
	if n := rs.NumPositions(); n != 3 {
		t.Errorf("NumPositions: got %d, want 3", n)
	}
	if rs.MaxArity() != 2 {
		t.Errorf("MaxArity: got %d", rs.MaxArity())
	}
	cs := rs.Constants()
	if len(cs) != 1 || cs[0] != "a" {
		t.Errorf("Constants: got %v", cs)
	}
}

func TestTGDRename(t *testing.T) {
	r := NewTGD([]Atom{atom("p", v("X"), v("Y"))}, []Atom{atom("q", v("Y"), v("Z"))})
	r2 := r.Rename(map[Variable]Variable{"Y": "W"})
	if r2.String() != "p(X,W) -> q(W,Z)" {
		t.Errorf("Rename: got %s", r2)
	}
	// The original must be untouched.
	if r.String() != "p(X,Y) -> q(Y,Z)" {
		t.Errorf("Rename mutated original: %s", r)
	}
}

func TestPositionString(t *testing.T) {
	p := Position{Pred: Predicate{Name: "p", Arity: 2}, Index: 1}
	if p.String() != "p[2]" {
		t.Errorf("Position.String: got %s", p)
	}
}

// TestRuleSetValidateFirstFault: Validate reports the first fault in rule
// order, body before head, whatever follows it.
func TestRuleSetValidateFirstFault(t *testing.T) {
	for _, tc := range []struct {
		rs   *RuleSet
		want string
	}{
		{NewRuleSet(
			NewTGD([]Atom{atom("p", v("X"))}, []Atom{atom("q", v("X"))}),
			NewTGD([]Atom{atom("q", v("X"), v("Y"))}, nil),
		), "logic: TGD q(X,Y) ->  has an empty head"},
		{NewRuleSet(
			NewTGD([]Atom{atom("p", v("X"))}, []Atom{atom("q", v("X"))}),
			NewTGD([]Atom{atom("q", v("X"), v("Y"))}, []Atom{atom("s", v("X"))}),
			NewTGD(nil, []Atom{atom("s", v("X"))}),
		), "logic: predicate q used with arities 1 and 2 (body of rule 1)"},
		{NewRuleSet(
			NewTGD([]Atom{atom("p", v("X"))}, nil),
			NewTGD([]Atom{atom("q", v("X"), v("Y"))}, []Atom{atom("q", v("X"))}),
		), "logic: TGD p(X) ->  has an empty head"},
		{NewRuleSet(
			NewTGD([]Atom{atom("p", v("X"))}, []Atom{atom("q", v("X")), atom("p", v("X"), v("X"))}),
		), "logic: predicate p used with arities 1 and 2 (head of rule 0)"},
	} {
		if err := tc.rs.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("Validate: %v, want %q", err, tc.want)
		}
	}
	// An invalid set still has a schema: one predicate per name and
	// arity, each with its own positions.
	bad := NewRuleSet(NewTGD([]Atom{atom("p", v("X"))}, []Atom{atom("p", v("X"), v("Y"))}))
	if got := bad.Schema(); len(got) != 2 || got[0].Arity != 1 || got[1].Arity != 2 || bad.NumPositions() != 3 {
		t.Errorf("Schema of an invalid set: %v, %d positions", got, bad.NumPositions())
	}
}

// TestRuleSetPositionIDs: position ids run predicate by predicate in
// schema order, and AtomBases locates every atom's first argument.
func TestRuleSetPositionIDs(t *testing.T) {
	rs := NewRuleSet(
		NewTGD([]Atom{atom("r", v("X"), v("Y"), v("Z"))}, []Atom{atom("go"), atom("p", v("X"))}),
		NewTGD([]Atom{atom("p", v("X")), atom("go")}, []Atom{atom("r", v("X"), c("a"), v("W"))}),
	)
	// Schema: go/0, p/1, r/3; ids p[1]=0, r[1..3]=1..3.
	for rule, want := range [][]int32{{1, 0, 0}, {0, 0, 1}} {
		if got := rs.AtomBases(rule); !slices.Equal(got, want) {
			t.Errorf("AtomBases(%d): %v, want %v", rule, got, want)
		}
	}
	var got []string
	for id := 0; id < rs.NumPositions(); id++ {
		got = append(got, rs.Position(id).String())
	}
	if want := []string{"p[1]", "r[1]", "r[2]", "r[3]"}; !slices.Equal(got, want) {
		t.Errorf("positions by id: %v, want %v", got, want)
	}
	for name, want := range map[string]int{"go": 0, "p": 1, "r": 3} {
		if k, ok := rs.Arity(name); !ok || k != want {
			t.Errorf("Arity(%s): %d, %v", name, k, ok)
		}
	}
	if _, ok := rs.Arity("q"); ok {
		t.Error("Arity(q): found")
	}
}

// TestSharedMemosConcurrent: a fresh rule set and its rules work out their
// memoized analyses once, whichever goroutine asks first. Run under
// -race.
func TestSharedMemosConcurrent(t *testing.T) {
	rs := NewRuleSet(
		NewTGD([]Atom{atom("p", v("X"), v("Y"))}, []Atom{atom("q", v("X"), v("Y"), v("Z"))}),
		NewTGD([]Atom{atom("q", v("X"), v("Y"), v("Z")), atom("r", v("X"))}, []Atom{atom("p", v("Y"), v("Z"))}),
	)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rs.Classify() != ClassGuarded || rs.MaxArity() != 3 || rs.Validate() != nil {
				t.Error("summary differs")
			}
			for _, r := range rs.Rules {
				r.Frontier()
				r.GuardIndex()
			}
		}()
	}
	wg.Wait()
}
