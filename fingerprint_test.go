package chaseterm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"chaseterm/internal/logic"
	"chaseterm/internal/parse"
	"chaseterm/internal/workload"
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

// TestFingerprintGolden pins fingerprint values, not just their
// invariances: verdict stores key their records by fingerprint
// ("dv2|<fingerprint>|…") and keep them across restarts, so a change of
// the canonical text would orphan every stored verdict. Each row of
// testdata/fingerprints.tsv is name, fingerprint, rules; the rules are
// literal text or a generator spec (see goldenSource).
func TestFingerprintGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/fingerprints.tsv")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cols := strings.Split(line, "\t")
		if len(cols) != 3 {
			t.Fatalf("line %d: %d columns, want 3", i+1, len(cols))
		}
		rows++
		if got := MustParseRules(goldenSource(t, cols[2])).Fingerprint(); got != cols[1] {
			t.Errorf("%s: fingerprint %s, want %s", cols[0], got, cols[1])
		}
	}
	if rows < 20 {
		t.Fatalf("only %d rows read", rows)
	}
}

// goldenSource expands the rules column of a golden row: literal rule
// text, or "@sl-family N [tag]", the closed simple-linear chain of N rules
// (workload.SLFamily) with every predicate name suffixed by tag.
func goldenSource(t *testing.T, spec string) string {
	t.Helper()
	if !strings.HasPrefix(spec, "@") {
		return spec
	}
	f := strings.Fields(spec)
	if f[0] != "@sl-family" || len(f) < 2 || len(f) > 3 {
		t.Fatalf("unknown generator spec %q", spec)
	}
	n, err := strconv.Atoi(f[1])
	if err != nil {
		t.Fatal(err)
	}
	tag := ""
	if len(f) == 3 {
		tag = f[2]
	}
	return taggedText(workload.SLFamily(n, true), tag)
}

// TestFingerprintMatchesReference checks the canonical text against a
// plain reference rendering (rename the variables into a fresh TGD, print
// it, sort the lines) on random sets of every generator and on constants
// holding bytes that sort below the line separator.
func TestFingerprintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var sets []*logic.RuleSet
	for i := 0; i < 50; i++ {
		sets = append(sets,
			workload.RandomSL(rng, workload.Config{NumPreds: 3, MaxArity: 3, NumRules: 4}),
			workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 3, NumRules: 4, RepeatProb: 0.5, ConstProb: 0.2}),
			workload.RandomGuarded(rng, workload.Config{NumPreds: 3, MaxArity: 3, NumRules: 4, MaxSideAtoms: 2}),
			workload.RandomInclusionDependencies(rng, 6, 4, 8))
	}
	sets = append(sets, parse.MustParseRules("p('a\tb') -> q. p('a') -> q. p('a\x01') -> q. t(X,'V1') -> r(X,Y), s."))
	for _, rs := range sets {
		if got, want := (&RuleSet{rs: rs}).Fingerprint(), referenceFingerprint(rs); got != want {
			t.Fatalf("fingerprint %s, reference %s, for\n%s", got, want, rs)
		}
	}
}

// referenceFingerprint is the canonical form written the long way.
func referenceFingerprint(rs *logic.RuleSet) string {
	lines := make([]string, len(rs.Rules))
	for i, r := range rs.Rules {
		ren := make(map[logic.Variable]logic.Variable)
		for _, a := range append(append([]logic.Atom(nil), r.Body...), r.Head...) {
			for _, arg := range a.Args {
				if v, ok := arg.(logic.Variable); ok {
					if _, done := ren[v]; !done {
						ren[v] = logic.Variable(fmt.Sprintf("V%d", len(ren)))
					}
				}
			}
		}
		lines[i] = r.Rename(ren).String()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}
