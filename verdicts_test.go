package chaseterm

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"chaseterm/internal/workload"
)

// verdictGenerators are the random generators of ladderCorpora. Every
// 10th input of each is pinned row by row; the rows of all its inputs
// are pinned by one digest row.
var verdictGenerators = map[string]bool{
	"theorem1-sl": true, "theorem2-linear": true, "theorem4-guarded": true,
	"constants-linear": true, "constants-guarded": true,
}

// verdictRows renders one input's rows: for each variant, the
// all-instance verdict and the verdict over a 4-fact random database
// seeded by the input's name, both under the input's budgets.
func verdictRows(c ladderCorpus) []string {
	rules := &RuleSet{rs: c.rs}
	rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE([]byte(c.name)))))
	db := &Database{atoms: workload.RandomABox(rng, c.rs, 4, 3)}
	var rows []string
	for _, scope := range []string{"all", "db"} {
		for _, v := range []Variant{Oblivious, SemiOblivious, Restricted} {
			opts := []RequestOption{WithDecideBudgets(c.opt)}
			if scope == "db" {
				opts = append(opts, WithDatabase(db))
			}
			row := []string{c.name, scope, [...]string{"o", "so", "r"}[v]}
			got, err := decide(context.Background(), rules, v, opts...)
			if err != nil {
				row = append(row, "error", "", "", "", "", "", pinText(err.Error()))
			} else {
				rungs := make([]string, len(got.Rungs))
				for i, r := range got.Rungs {
					rungs[i] = r.Rung + ":" + r.Verdict
				}
				row = append(row, got.Terminates.String(), got.Class.String(), got.Method, got.DecidedBy,
					strconv.Itoa(got.SearchSpace), strings.Join(rungs, ","), pinText(got.Witness))
			}
			rows = append(rows, strings.Join(row, "\t"))
		}
	}
	return rows
}

// pinText keeps a witness of up to 80 bytes as it is and replaces a
// longer one by a prefix of its SHA-256 digest.
func pinText(s string) string {
	if len(s) <= 80 {
		return s
	}
	sum := sha256.Sum256([]byte(s))
	return "sha256:" + hex.EncodeToString(sum[:8])
}

// renderVerdicts renders testdata/verdicts.tsv: the rows of every
// family and hand-written input of ladderCorpora, the rows of every 10th
// input of each random generator, and after each generator's inputs a
// digest row over the rows of all of them.
func renderVerdicts() []byte {
	var b bytes.Buffer
	b.WriteString("# Verdicts of AnalyzeDecide pinned by TestVerdictsGolden.\n")
	b.WriteString("# Columns: input, scope (all = every database, db = a seeded 4-fact database), variant,\n")
	b.WriteString("# terminates, class, method, decidedBy, searchSpace, rungs (name:verdict), witness\n")
	b.WriteString("# (sha256:<prefix> when over 80 bytes). A digest row is the SHA-256 of the rows of\n")
	b.WriteString("# all of a random generator's inputs, one per line.\n")
	corpora := ladderCorpora()
	for k := 0; k < len(corpora); {
		gen, _, _ := strings.Cut(corpora[k].name, "/")
		if !verdictGenerators[gen] {
			for _, row := range verdictRows(corpora[k]) {
				b.WriteString(row + "\n")
			}
			k++
			continue
		}
		h := sha256.New()
		for ; k < len(corpora); k++ {
			g, i, _ := strings.Cut(corpora[k].name, "/")
			if g != gen {
				break
			}
			n, _ := strconv.Atoi(i)
			for _, row := range verdictRows(corpora[k]) {
				fmt.Fprintln(h, row)
				if n%10 == 0 {
					b.WriteString(row + "\n")
				}
			}
		}
		fmt.Fprintf(&b, "digest\t%s\t%x\n", gen, h.Sum(nil))
	}
	return b.Bytes()
}

// TestVerdictsGolden pins what AnalyzeDecide answers, field by field,
// on the ladder corpora: the verdict, class, method, deciding rung,
// search space, rung trace and witness, for all databases and for a
// fixed one, under o, so and r. The file holds the answers of the code
// before the decider types were unified into one vocabulary, so any row
// that moves is a change of behaviour, not of types.
func TestVerdictsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation corpora")
	}
	want, err := os.ReadFile("testdata/verdicts.tsv")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(string(renderVerdicts()), "\n")
	lines := strings.Split(string(want), "\n")
	if len(got) != len(lines) {
		t.Errorf("%d lines rendered, %d pinned", len(got), len(lines))
	}
	bad := 0
	for i := 0; i < len(got) && i < len(lines); i++ {
		if got[i] != lines[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], lines[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d lines differ in all", bad)
	}
}
