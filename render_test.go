package chaseterm

import (
	"context"
	"testing"

	"chaseterm/internal/chase"
	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
)

// chaseABox runs the ontologyCase TBox over abox under v.
func chaseABox(t *testing.T, rules *logic.RuleSet, abox []logic.Atom, v Variant, opts ...RequestOption) *ChaseResult {
	t.Helper()
	rep, err := Analyzer{}.Analyze(context.Background(), NewRequest(AnalyzeChase, &RuleSet{rs: rules},
		append(opts, WithDatabase(&Database{atoms: abox}), WithVariant(v))...))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chase.Outcome != Terminated {
		t.Fatalf("%v: outcome %v", v, rep.Chase.Outcome)
	}
	return rep.Chase
}

// TestStreamBatchesInFactIDOrder: for a restricted (nulls) and a
// semi-oblivious (nested Skolem terms) run, the concatenated stream
// batches are exactly the derived facts rendered one at a time, in FactID
// order.
func TestStreamBatchesInFactIDOrder(t *testing.T) {
	rules, db := ontologyCase(t)
	for _, v := range []Variant{Restricted, SemiOblivious} {
		sink := &recordingSink{}
		res := chaseABox(t, rules, db, v, WithChaseSink(sink))
		var streamed []string
		for _, b := range sink.batches {
			streamed = append(streamed, b...)
		}
		initial, size := res.Stats.InitialFacts, res.inst.Size()
		if len(streamed) != size-initial || len(sink.batches) < 2 {
			t.Fatalf("%v: %d facts in %d batches, derived %d", v, len(streamed), len(sink.batches), size-initial)
		}
		for i, got := range streamed {
			if want := res.inst.FactString(instance.FactID(initial + i)); got != want {
				t.Fatalf("%v: streamed fact %d is %q, fact %d renders %q", v, i, got, initial+i, want)
			}
		}
	}
}

type discardSink struct{}

func (discardSink) EmitFacts([]string, ChaseStats) {}
func (discardSink) Progress(ChaseStats)            {}

// TestRenderAllocs pins the allocations of the two ways a chase result is
// rendered, on a 10,168-fact and a 26,049-fact semi-oblivious result
// (Skolem terms nested several deep). Rendering one fact at a time cost
// about four allocations per fact: 107,105 for Strings and 102,838 for
// the stream adapter on the larger result.
//   - Strings, behind ChaseResult.Facts, renders every fact into one
//     buffer: its count stays under one bound for both sizes (only the
//     buffer's growth steps, logarithmic in its length, vary).
//   - The stream adapter allocates one string per batch, plus the growth
//     of its reused buffers.
func TestRenderAllocs(t *testing.T) {
	rules, db := ontologyCase(t)
	for _, abox := range [][]logic.Atom{db[:500], db} {
		res := chaseABox(t, rules, abox, SemiOblivious)
		in := res.inst
		strs := testing.AllocsPerRun(3, func() { in.Strings() })
		if strs > 48 {
			t.Errorf("%d facts: Strings allocates %.0f times, want at most 48", in.Size(), strs)
		}

		lo, hi := instance.FactID(res.Stats.InitialFacts), instance.FactID(in.Size())
		batches := (int(hi-lo) + streamBatchSize - 1) / streamBatchSize
		got := testing.AllocsPerRun(3, func() {
			ad := &sinkAdapter{in: in, sink: discardSink{}}
			for id := lo; id < hi; id += 7 {
				ad.EmitFacts(id, min(id+7, hi), chase.Stats{})
			}
			ad.flush(chase.Stats{})
		})
		if limit := float64(batches + 48); got > limit {
			t.Errorf("%d derived facts in %d batches: stream adapter allocates %.0f times, want at most %.0f",
				hi-lo, batches, got, limit)
		}
		t.Logf("%d facts (%d derived, %d batches): Strings %.0f allocs, stream adapter %.0f",
			in.Size(), hi-lo, batches, strs, got)
	}
}
