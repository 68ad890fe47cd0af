package chaseterm

import (
	"context"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

func TestFingerprintStable(t *testing.T) {
	src := `
		person(X) -> hasFather(X,Y), person(Y).
		hasFather(X,Y) -> person(Y).
	`
	a := MustParseRules(src).Fingerprint()
	b := MustParseRules(src).Fingerprint()
	if a != b {
		t.Fatalf("fingerprint not stable across parses: %s vs %s", a, b)
	}
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(a) {
		t.Fatalf("fingerprint is not a sha256 hex digest: %q", a)
	}
}

func TestFingerprintInvariantUnderRuleReordering(t *testing.T) {
	a := MustParseRules(`
		professor(X) -> teaches(X,C).
		teaches(X,C) -> course(C).
		advises(X,Y) -> professor(X).
	`)
	b := MustParseRules(`
		advises(X,Y) -> professor(X).
		professor(X) -> teaches(X,C).
		teaches(X,C) -> course(C).
	`)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("reordered-but-equal rule sets got different fingerprints:\n%s\n%s",
			a.Fingerprint(), b.Fingerprint())
	}
}

func TestFingerprintInvariantUnderVariableRenaming(t *testing.T) {
	a := MustParseRules(`person(X) -> hasFather(X,Y), person(Y).`)
	b := MustParseRules(`person(Who) -> hasFather(Who,Dad), person(Dad).`)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("alpha-equivalent rule sets got different fingerprints")
	}
}

func TestFingerprintSeparatesDistinctSets(t *testing.T) {
	cases := []string{
		`person(X) -> hasFather(X,Y), person(Y).`,
		`person(X) -> hasFather(X,Y).`,
		`person(X) -> hasFather(Y,X), person(Y).`, // argument order differs
		`p(X,X) -> q(X).`,
		`p(X,Y) -> q(X).`,
		`p('V0',X) -> q(X).`, // constant spelled like a canonical variable
		`p(V9,X) -> q(X).`,   // V9 is a variable here
	}
	seen := make(map[string]string)
	for _, src := range cases {
		fp := MustParseRules(src).Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("distinct rule sets share a fingerprint:\n%s\n%s", prev, src)
		}
		seen[fp] = src
	}
}

// TestPredicatesDeterministic guards the inputs feeding the fingerprint
// and the service cache key: Predicates() must come out sorted and
// identical across parses regardless of rule order.
func TestPredicatesDeterministic(t *testing.T) {
	a := MustParseRules(`
		gate(X,Y), live(X) -> out(Y,Z), live(Z).
		out(Y,Z) -> gate(Y,Z).
	`)
	b := MustParseRules(`
		out(Y,Z) -> gate(Y,Z).
		gate(X,Y), live(X) -> out(Y,Z), live(Z).
	`)
	pa, pb := a.Predicates(), b.Predicates()
	if !sort.StringsAreSorted(pa) {
		t.Errorf("Predicates() not sorted: %v", pa)
	}
	if len(pa) != len(pb) {
		t.Fatalf("predicate lists differ: %v vs %v", pa, pb)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("predicate lists differ at %d: %v vs %v", i, pa, pb)
		}
	}
}

// TestVerdictDeterministic re-decides the same set from fresh parses and
// requires byte-identical verdict details (method, witness, search
// space, deciding rung, rung trace up to timings) — these strings are
// surfaced by the service and must not leak map-iteration order.
func TestVerdictDeterministic(t *testing.T) {
	srcs := []string{
		`person(X) -> hasFather(X,Y), person(Y).`,
		`gate(X,Y), live(X) -> out(Y,Z), live(Z).
		 out(Y,Z) -> gate(Y,Z).`,
	}
	for _, src := range srcs {
		for _, v := range []Variant{Oblivious, SemiOblivious} {
			first, err := decide(context.Background(), MustParseRules(src), v)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				again, err := decide(context.Background(), MustParseRules(src), v)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(untimed(again), untimed(first)) {
					t.Errorf("verdict for %q (%s) not deterministic:\n%+v\n%+v", src, v, first, again)
				}
			}
		}
	}
}

// untimed returns a copy of the verdict with the rung timings zeroed.
func untimed(v *Verdict) Verdict {
	out := *v
	out.Rungs = append([]RungTiming(nil), v.Rungs...)
	for i := range out.Rungs {
		out.Rungs[i].Elapsed = 0
	}
	return out
}
