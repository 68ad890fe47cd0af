package chaseterm_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"chaseterm"
)

// wideChainDB renders a chain of n edge facts — wide enough that each
// chase generation carries well over the parallel engine's inline
// threshold, so the striped match phase actually runs.
func wideChainDB(n int) *chaseterm.Database {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e(a%d,a%d).\n", i, i+1)
	}
	return chaseterm.MustParseDatabase(b.String())
}

// chaseWith runs one AnalyzeChase request over a wide terminating
// workload with the given extra options and returns the report.
func chaseWith(t *testing.T, opts ...chaseterm.RequestOption) *chaseterm.Report {
	t.Helper()
	rules := chaseterm.MustParseRules(`e(X,Y) -> r(X,Y).
	                                   r(X,Y) -> s(Y,X).
	                                   e(X,Y), e(Y,Z) -> t(X,Z).
	                                   t(X,Z) -> u(X,W).`)
	all := append([]chaseterm.RequestOption{
		chaseterm.WithDatabase(wideChainDB(120)),
		chaseterm.WithVariant(chaseterm.Restricted),
		chaseterm.WithFacts(),
	}, opts...)
	rep, err := an.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalyzeChase, rules, all...))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chase.Outcome != chaseterm.Terminated {
		t.Fatalf("outcome %v, want terminated", rep.Chase.Outcome)
	}
	return rep
}

// TestWithParallelismChaseIdentical: a chase through the facade with
// ChaseOptions{Workers: 8} must report the identical outcome,
// statistics, engine counters (the stripe-aggregated TriggersEnqueued
// and MaxTermDepth included), and final instance as a sequential run.
func TestWithParallelismChaseIdentical(t *testing.T) {
	seq := chaseWith(t)
	par := chaseWith(t, chaseterm.WithChaseBudgets(chaseterm.ChaseOptions{Workers: 8}))
	if par.Chase.Stats != seq.Chase.Stats {
		t.Errorf("stats %+v, sequential %+v", par.Chase.Stats, seq.Chase.Stats)
	}
	if *par.Engine != *seq.Engine {
		t.Errorf("engine stats %+v, sequential %+v", *par.Engine, *seq.Engine)
	}
	if !reflect.DeepEqual(par.Chase.Facts(), seq.Chase.Facts()) {
		t.Errorf("instances differ: %d vs %d facts", len(par.Chase.Facts()), len(seq.Chase.Facts()))
	}
}
