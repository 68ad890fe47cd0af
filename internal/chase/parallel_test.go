package chase

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
	"chaseterm/internal/workload"
)

// testWorkers returns the parallel worker count the regression tests
// exercise: CHASE_WORKERS when set (CI runs the package under -race
// with CHASE_WORKERS=8), 8 otherwise.
func testWorkers(t *testing.T) int {
	t.Helper()
	if s := os.Getenv("CHASE_WORKERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 2 {
			t.Fatalf("bad CHASE_WORKERS=%q", s)
		}
		return n
	}
	return 8
}

// corpusCase is one workload the determinism regression runs both ways.
type corpusCase struct {
	name  string
	rules *logic.RuleSet
	db    []logic.Atom
	opt   Options
}

func determinismCorpus() []corpusCase {
	rng := rand.New(rand.NewSource(7))
	incl := workload.RandomInclusionDependencies(rng, 10, 5, 30)
	inclDB := workload.RandomABox(rng, incl, 60, 20)
	sl := workload.RandomSL(rng, workload.Config{NumPreds: 4, NumRules: 5})
	slDB := workload.RandomABox(rng, sl, 40, 12)
	guarded := workload.RandomGuarded(rng, workload.Config{NumPreds: 4, NumRules: 4, MaxArity: 3})
	guardedDB := workload.RandomABox(rng, guarded, 40, 12)
	return []corpusCase{
		{"example1-budget", workload.Example1(), workload.Example1DB(),
			Options{MaxTriggers: 500}},
		{"example2-budget", workload.Example2(), workload.Example2DB(),
			Options{MaxFacts: 400}},
		{"example2-cyclic", workload.Example2(), workload.Example2DB(),
			Options{StopOnCyclicSkolem: true}},
		{"example1-depth", workload.Example1(), workload.Example1DB(),
			Options{MaxDepth: 6}},
		{"ontology", workload.OntologySL(), workload.OntologyDB(), Options{}},
		{"data-exchange", workload.DataExchange(), workload.DataExchangeDB(), Options{}},
		{"inclusion-deps", incl, inclDB, Options{MaxTriggers: 20_000, MaxFacts: 20_000}},
		{"random-sl", sl, slDB, Options{MaxTriggers: 10_000, MaxFacts: 10_000}},
		{"random-guarded", guarded, guardedDB, Options{MaxTriggers: 5_000, MaxFacts: 10_000}},
	}
}

// normalizeRanges order-normalizes a stream's emitted ranges into the
// minimal sorted set of disjoint intervals covering the same fact ids.
func normalizeRanges(ranges [][2]instance.FactID) [][2]instance.FactID {
	if len(ranges) == 0 {
		return nil
	}
	out := append([][2]instance.FactID(nil), ranges...)
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	merged := out[:1]
	for _, r := range out[1:] {
		last := &merged[len(merged)-1]
		if r[0] <= last[1] {
			if r[1] > last[1] {
				last[1] = r[1]
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// runStreamed runs one engine over a fresh copy of the case's database
// and returns the result plus the emitted ranges.
func runStreamed(t *testing.T, c corpusCase, v Variant, workers int) (*Result, [][2]instance.FactID) {
	t.Helper()
	in, err := instance.FromAtoms(c.db)
	if err != nil {
		t.Fatal(err)
	}
	opt := c.opt
	opt.Workers = workers
	e, err := NewEngine(in, c.rules, v, opt)
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	res, err := e.RunStreamContext(context.Background(), sink)
	if err != nil {
		t.Fatal(err)
	}
	return res, sink.ranges
}

// TestParallelMatchesSequentialCorpus is the determinism regression of
// the parallel engine: on every corpus workload and chase variant, a
// parallel run (CHASE_WORKERS, default 8; plus workers=2 to catch
// batch-boundary bugs a large worker count can mask) must produce the
// identical outcome, identical statistics (including TriggersEnqueued
// and MaxTermDepth, the per-stripe aggregates), the identical final
// instance, and the identical order-normalized union of streamed fact
// ranges as the sequential engine.
func TestParallelMatchesSequentialCorpus(t *testing.T) {
	workers := testWorkers(t)
	for _, c := range determinismCorpus() {
		for _, v := range []Variant{Oblivious, SemiOblivious, Restricted} {
			if c.opt.StopOnCyclicSkolem && v != SemiOblivious {
				continue
			}
			t.Run(c.name+"/"+v.String(), func(t *testing.T) {
				seqRes, seqRanges := runStreamed(t, c, v, 1)
				for _, w := range []int{2, workers} {
					parRes, parRanges := runStreamed(t, c, v, w)
					if parRes.Outcome != seqRes.Outcome {
						t.Errorf("workers=%d outcome %v, sequential %v", w, parRes.Outcome, seqRes.Outcome)
					}
					if parRes.Stats != seqRes.Stats {
						t.Errorf("workers=%d stats %+v, sequential %+v", w, parRes.Stats, seqRes.Stats)
					}
					seq := seqRes.Instance.Strings()
					par := parRes.Instance.Strings()
					if !reflect.DeepEqual(seq, par) {
						t.Errorf("workers=%d instance differs: %d vs %d facts", w, len(par), len(seq))
					}
					if got, want := normalizeRanges(parRanges), normalizeRanges(seqRanges); !reflect.DeepEqual(got, want) {
						t.Errorf("workers=%d stream range union %v, sequential %v", w, got, want)
					}
				}
			})
		}
	}
}

// TestParallelStatsAggregation pins the stripe-aggregated statistics
// against the sequential counts on a workload deep enough to cross many
// generations: TriggersEnqueued (merged across stripes) and
// MaxTermDepth (writer-side reduce) must agree exactly.
func TestParallelStatsAggregation(t *testing.T) {
	workers := testWorkers(t)
	rng := rand.New(rand.NewSource(26))
	rs := workload.RandomInclusionDependencies(rng, 12, 6, 40)
	db := workload.RandomABox(rng, rs, 100, 30)
	for _, v := range []Variant{Oblivious, SemiOblivious, Restricted} {
		opt := Options{MaxTriggers: 50_000, MaxFacts: 50_000}
		seqIn, err := instance.FromAtoms(db)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := RunContext(context.Background(), seqIn, rs, v, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Workers = workers
		parIn, err := instance.FromAtoms(db)
		if err != nil {
			t.Fatal(err)
		}
		par, err := RunContext(context.Background(), parIn, rs, v, opt)
		if err != nil {
			t.Fatal(err)
		}
		if par.Stats.TriggersEnqueued != seq.Stats.TriggersEnqueued {
			t.Errorf("%v: TriggersEnqueued %d, sequential %d", v, par.Stats.TriggersEnqueued, seq.Stats.TriggersEnqueued)
		}
		if par.Stats.MaxTermDepth != seq.Stats.MaxTermDepth {
			t.Errorf("%v: MaxTermDepth %d, sequential %d", v, par.Stats.MaxTermDepth, seq.Stats.MaxTermDepth)
		}
		if par.Stats != seq.Stats {
			t.Errorf("%v: stats %+v, sequential %+v", v, par.Stats, seq.Stats)
		}
	}
}

// TestParallelNonFIFOFallsBackSequential: the parallel engine is defined
// only for FIFO scheduling; other orders run the sequential loop and
// must keep their order-specific semantics.
func TestParallelNonFIFOFallsBackSequential(t *testing.T) {
	for _, ord := range []Order{OrderLIFO, OrderRulePriority} {
		in, err := instance.FromAtoms(workload.OntologyDB())
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Order: ord, Workers: 8}
		res, err := RunContext(context.Background(), in, workload.OntologySL(), Restricted, opt)
		if err != nil || res.Outcome != Terminated {
			t.Fatalf("order %v: %v %v", ord, res, err)
		}
		inSeq, err := instance.FromAtoms(workload.OntologyDB())
		if err != nil {
			t.Fatal(err)
		}
		seq, err := RunContext(context.Background(), inSeq, workload.OntologySL(), Restricted, Options{Order: ord})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != seq.Stats {
			t.Errorf("order %v: workers=8 stats %+v, sequential %+v", ord, res.Stats, seq.Stats)
		}
	}
}

// TestParallelCancellation: a canceled parallel run returns Canceled
// with ctx.Err(), promptly, from whichever phase observes the cancel.
func TestParallelCancellation(t *testing.T) {
	rules := workload.Example1()
	in, err := instance.FromAtoms(workload.Example1DB())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(in, rules, SemiOblivious,
		Options{MaxTriggers: 1 << 20, MaxFacts: 1 << 20, Workers: testWorkers(t)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sink := &collectSink{}
	sink.onFacts = func() {
		if len(sink.ranges) == 2 {
			cancel()
		}
	}
	res, err := e.RunStreamContext(ctx, sink)
	if err == nil {
		t.Fatal("expected a context error")
	}
	if res.Outcome != Canceled {
		t.Fatalf("outcome %v, want Canceled", res.Outcome)
	}
	cancel()
}

// TestParallelModelProperty: a terminated parallel restricted chase must
// still be a model of the rules — the result is not just deterministic
// but correct.
func TestParallelModelProperty(t *testing.T) {
	in, err := instance.FromAtoms(workload.DataExchangeDB())
	if err != nil {
		t.Fatal(err)
	}
	rs := workload.DataExchange()
	res, err := RunContext(context.Background(), in, rs, Restricted, Options{Workers: testWorkers(t)})
	if err != nil || res.Outcome != Terminated {
		t.Fatalf("run: %+v %v", res, err)
	}
	bad, err := IsModel(res.Instance, rs)
	if err != nil {
		t.Fatal(err)
	}
	if bad != "" {
		t.Errorf("parallel chase result is not a model: %s", bad)
	}
}
