package instance

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// refTermString and refFactString are the string-concatenating renderer
// that AppendTerm and AppendFact replaced, kept verbatim as the reference
// the buffer renderer must match byte for byte.
func refTermString(t *TermTable, id TermID) string {
	in := t.infos[id]
	switch in.kind {
	case KindConst:
		return t.names[in.aux]
	case KindNull:
		return fmt.Sprintf("z%d", in.aux)
	default:
		args := t.SkolemArgs(id)
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = refTermString(t, a)
		}
		return t.fnNames[t.sk.Tag(in.aux)] + "(" + strings.Join(parts, ",") + ")"
	}
}

func refFactString(in *Instance, id FactID) string {
	f := in.Fact(id)
	if len(f.Args) == 0 {
		return in.predNames[f.Pred]
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = refTermString(in.Terms, a)
	}
	return in.predNames[f.Pred] + "(" + strings.Join(parts, ",") + ")"
}

// renderFixture builds an instance over every species of term the
// renderer distinguishes: plain, quoted, numeral and non-ASCII
// constants; nulls past z9; Skolem terms with zero, one and several
// arguments nested five deep; and nullary facts.
func renderFixture() *Instance {
	in := New()
	tt := in.Terms
	terms := []TermID{
		tt.Const("alice"), tt.Const("'Bob'"), tt.Const("42"), tt.Const("-3.5"),
		tt.Const("müller"), tt.Const("東京"), tt.Const("'it''s'"),
	}
	for range 23 {
		terms = append(terms, tt.FreshNull(1))
	}
	f, g, h := tt.SkolemFn("f0_Y"), tt.SkolemFn("f12_Z"), tt.SkolemFn("k")
	s := tt.Skolem(h, nil)
	terms = append(terms, s)
	for depth := 0; depth < 5; depth++ {
		s = tt.Skolem(f, []TermID{s, terms[depth], terms[7+2*depth]})
		terms = append(terms, s, tt.Skolem(g, []TermID{s}))
	}

	in.Add(in.Pred("go", 0), nil)
	in.Add(in.Pred("halt", 0), nil)
	p, r, q := in.Pred("p", 1), in.Pred("r", 2), in.Pred("tern", 3)
	for i, a := range terms {
		in.Add(p, []TermID{a})
		b := terms[(i*7+3)%len(terms)]
		in.Add(r, []TermID{a, b})
		in.Add(q, []TermID{b, a, terms[(i*5)%len(terms)]})
	}
	return in
}

// TestRenderMatchesReference: FactString, TermTable.String and Name of
// every id, and the sorted Strings, equal what the reference renderer
// produces.
func TestRenderMatchesReference(t *testing.T) {
	in := renderFixture()
	tt := in.Terms
	if d := in.MaxInventedDepth(); d < 5 {
		t.Fatalf("fixture nests Skolem terms only %d deep", d)
	}
	for id := TermID(0); int(id) < tt.Len(); id++ {
		if got, want := tt.String(id), refTermString(tt, id); got != want {
			t.Errorf("term %d: String %q, reference %q", id, got, want)
		}
		var want string
		switch tt.Kind(id) {
		case KindConst:
			want = tt.names[tt.infos[id].aux]
		case KindNull:
			want = fmt.Sprintf("z%d", tt.infos[id].aux)
		case KindSkolem:
			want = tt.SkolemFnName(tt.SkolemFnOf(id))
		}
		if got := tt.Name(id); got != want {
			t.Errorf("term %d: Name %q, want %q", id, got, want)
		}
	}
	want := make([]string, in.Size())
	for i := range want {
		want[i] = refFactString(in, FactID(i))
		if got := in.FactString(FactID(i)); got != want[i] {
			t.Errorf("fact %d: FactString %q, reference %q", i, got, want[i])
		}
	}
	sort.Strings(want)
	got := in.Strings()
	if len(got) != len(want) {
		t.Fatalf("Strings: %d facts, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Strings[%d] = %q, reference %q", i, got[i], want[i])
		}
	}
}
