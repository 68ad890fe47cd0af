package core

import (
	"bufio"
	"context"
	"os"
	"strconv"
	"strings"
	"testing"

	"chaseterm/internal/chase"
	"chaseterm/internal/parse"
	"chaseterm/internal/workload"
)

// TestGuardedNodeTypeCounts pins the node-type count of every terminating
// input of the guarded corpora (testdata/guarded_node_types.tsv). On a
// terminating input the count is the number of types reachable from the
// root, a property of the isomorphism classes alone: renaming the
// canonical representative must neither merge nor split types.
func TestGuardedNodeTypeCounts(t *testing.T) {
	f, err := os.Open("testdata/guarded_node_types.tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	rows := 0
	for line := 1; sc.Scan(); line++ {
		if sc.Text() == "" || strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		rows++
		cols := strings.Split(sc.Text(), "\t")
		if len(cols) != 4 {
			t.Fatalf("line %d: %d columns", line, len(cols))
		}
		want, err := strconv.Atoi(cols[1])
		if err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		rs := parse.MustParseRules(cols[2])
		v := chase.SemiOblivious
		if cols[0] == "o" {
			v = chase.Oblivious
		}
		var res *Verdict
		if cols[3] == "-" {
			res, err = DecideGuardedContext(context.Background(), rs, v, Options{})
		} else {
			res, err = DecideGuardedOnContext(context.Background(), rs, parse.MustParseFacts(cols[3]), v, Options{})
		}
		if err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		if res.Answer != Terminating || res.NodeTypeCount != want {
			t.Errorf("line %d (%s %s): %v with %d node types, want terminating with %d",
				line, cols[0], cols[2], res.Answer, res.NodeTypeCount, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows < 500 {
		t.Fatalf("only %d rows read", rows)
	}
}

// TestGuardedDecideAllocs pins the allocations of a whole all-instance
// decide on the arity family; the bounds sit just above the measured
// counts (also under -race).
func TestGuardedDecideAllocs(t *testing.T) {
	for _, tc := range []struct {
		arity int
		max   float64
	}{
		{2, 640},
		{3, 2560},
	} {
		rs := workload.GuardedArityFamily(tc.arity)
		got := testing.AllocsPerRun(10, func() {
			if _, err := DecideGuardedContext(context.Background(), rs, chase.SemiOblivious, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("GuardedArityFamily(%d): %.0f allocs per decide, want <= %.0f", tc.arity, got, tc.max)
		}
	}
}
