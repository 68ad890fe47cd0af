package chase

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
	"chaseterm/internal/parse"
	"chaseterm/internal/workload"
)

// corpusCase is one workload of the determinism corpus.
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
	// A terminating DL-Lite TBox (the class the service chases) whose
	// semi-oblivious run derives 10,170 facts: its one-atom rules queue
	// their anchor facts, its domain and range axioms probe.
	dlRNG := rand.New(rand.NewSource(927))
	dlLite := workload.RandomInclusionDependencies(dlRNG, 12, 6, 40)
	dlLiteDB := workload.RandomABox(dlRNG, dlLite, 1000, 200)
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
		{"dl-lite", dlLite, dlLiteDB, Options{}},
		// Semi-obliviously the p2 rule's triggers are unique and those of
		// p1(X,Y) -> p1(Y,Y) are not: its key drops X. Applying a p2
		// trigger writes p1(X,Z), whose discovery projects a p1 key into
		// the engine's scratch buffer, before it writes p0(Y,X). A p2
		// frontier kept in that buffer derives p0(b, <Skolem term>)
		// instead of p0(b,a).
		{"frontier-alias", parse.MustParseRules(`
			p2(X,Y) -> p1(X,Z), p0(Y,X).
			p1(X,Y) -> p1(Y,Y).
			p0(X,Y) -> p1(X,Z).`),
			parse.MustParseFacts(`p2(a,b). p2(b,c). p0(c,a).`), Options{}},
		// One-atom bodies that a fact matches only if it repeats a term or
		// holds a constant: the facts failing those checks anchor no
		// trigger.
		{"repeated-and-constant", parse.MustParseRules(`
			e(X,X) -> s(X,Z).
			e(a,Y) -> t(Y,Y).
			t(X,X) -> e(X,X).
			s(X,Y) -> u(Y,X,Y).
			u(X,a,X) -> e(a,X).
			u(X,Y,X) -> v(Y).
			v(X) -> e(X,b).`),
			parse.MustParseFacts(`e(a,a). e(a,b). e(b,b). e(c,c). e(b,a). t(c,d). u(c,a,d). u(d,d,d).`),
			Options{}},
	}
}

// corpusPins holds, per corpus case and variant, the resultDigest of the
// run (outcome, every Stats field, every fact in FactID order), the
// number of EmitFacts calls of a streamed run and the normalized union
// of the emitted ranges.
var corpusPins = map[string]struct {
	digest string
	emits  int
	ranges [][2]instance.FactID
}{
	"example1-budget/oblivious":      {"b9b4c14ef34f5f71", 500, [][2]instance.FactID{{1, 1001}}},
	"example1-budget/semi-oblivious": {"2f4485036f3bfe83", 500, [][2]instance.FactID{{1, 1001}}},
	"example1-budget/restricted":     {"b9b4c14ef34f5f71", 500, [][2]instance.FactID{{1, 1001}}},
	"example2-budget/oblivious":      {"de8f8b408de9e427", 399, [][2]instance.FactID{{1, 400}}},
	"example2-budget/semi-oblivious": {"f9a1207af9f323ec", 399, [][2]instance.FactID{{1, 400}}},
	"example2-budget/restricted":     {"de8f8b408de9e427", 399, [][2]instance.FactID{{1, 400}}},
	"example2-cyclic/semi-oblivious": {"ad5f65f7b86d5a06", 2, [][2]instance.FactID{{1, 3}}},
	"example1-depth/oblivious":       {"7be4fc3996b52040", 7, [][2]instance.FactID{{1, 15}}},
	"example1-depth/semi-oblivious":  {"c52f3c9a0c78bc9f", 7, [][2]instance.FactID{{1, 15}}},
	"example1-depth/restricted":      {"7be4fc3996b52040", 7, [][2]instance.FactID{{1, 15}}},
	"ontology/oblivious":             {"5a1fb794c48a9d7c", 8, [][2]instance.FactID{{4, 12}}},
	"ontology/semi-oblivious":        {"cd759abfa5e58ba5", 8, [][2]instance.FactID{{4, 12}}},
	"ontology/restricted":            {"c3d90e44fc800b69", 4, [][2]instance.FactID{{4, 8}}},
	"data-exchange/oblivious":        {"26b1919d37190186", 6, [][2]instance.FactID{{4, 18}}},
	"data-exchange/semi-oblivious":   {"1a093e8ec70f05ff", 6, [][2]instance.FactID{{4, 18}}},
	"data-exchange/restricted":       {"26b1919d37190186", 6, [][2]instance.FactID{{4, 18}}},
	"inclusion-deps/oblivious":       {"80571cec3625b4aa", 15088, [][2]instance.FactID{{59, 17525}}},
	"inclusion-deps/semi-oblivious":  {"fa0cdfbccc536271", 16473, [][2]instance.FactID{{59, 19124}}},
	"inclusion-deps/restricted":      {"7c140c7f3c97b5ba", 17878, [][2]instance.FactID{{59, 20000}}},
	"random-sl/oblivious":            {"73cc8f7f5d5a7b40", 6606, [][2]instance.FactID{{34, 10000}}},
	"random-sl/semi-oblivious":       {"66de3f9fa65f6ee8", 6604, [][2]instance.FactID{{34, 10001}}},
	"random-sl/restricted":           {"373598d3c1b0e99e", 5107, [][2]instance.FactID{{34, 10000}}},
	"random-guarded/oblivious":       {"c7101ecb18e11e75", 4999, [][2]instance.FactID{{28, 6697}}},
	"random-guarded/semi-oblivious":  {"f9823d368b0c310d", 11, [][2]instance.FactID{{28, 41}}},
	"random-guarded/restricted":      {"5882295548404ed6", 2, [][2]instance.FactID{{28, 30}}},
	"dl-lite/oblivious":              {"833f33d62f9934d6", 8988, [][2]instance.FactID{{914, 11084}}},
	"dl-lite/semi-oblivious":         {"53ee7b3984d470c8", 8988, [][2]instance.FactID{{914, 11084}}},
	"dl-lite/restricted":             {"9c901857f837a2fe", 6754, [][2]instance.FactID{{914, 8625}}},

	// Pinned before the engine queued a one-atom rule's trigger as its
	// anchor fact.
	"frontier-alias/oblivious":             {"62af720f08c4fb4c", 10, [][2]instance.FactID{{3, 15}}},
	"frontier-alias/semi-oblivious":        {"c0ec7474142ecd4d", 8, [][2]instance.FactID{{3, 13}}},
	"frontier-alias/restricted":            {"a0de66ace25e1345", 6, [][2]instance.FactID{{3, 11}}},
	"repeated-and-constant/oblivious":      {"97d720abd1d9f2c4", 21, [][2]instance.FactID{{8, 29}}},
	"repeated-and-constant/semi-oblivious": {"c8747ef3c4d92cfd", 21, [][2]instance.FactID{{8, 29}}},
	"repeated-and-constant/restricted":     {"6709dfbbd4585a8c", 21, [][2]instance.FactID{{8, 29}}},
}

// normalizeRanges merges a stream's emitted ranges into the minimal
// sorted set of disjoint intervals covering the same fact ids.
func normalizeRanges(ranges [][2]instance.FactID) [][2]instance.FactID {
	var merged [][2]instance.FactID
	for _, r := range ranges {
		if n := len(merged); n > 0 && r[0] <= merged[n-1][1] {
			merged[n-1][1] = max(merged[n-1][1], r[1])
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// runStreamed runs the engine over a fresh copy of the case's database
// and returns the result plus the emitted ranges.
func runStreamed(t *testing.T, c corpusCase, v Variant) (*Result, [][2]instance.FactID) {
	t.Helper()
	in, err := instance.FromAtoms(c.db)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(in, c.rules, v, c.opt)
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

// TestParallelMatchesSequentialCorpus is the byte-level regression of the
// engine: on every corpus workload and chase variant — budget, depth and
// cyclic-Skolem stops included — a run must reproduce the pinned digest
// and stream of the sequential engine. The subtests run in parallel, one
// engine each, as the service's worker pool runs chases: engines over
// separate instances share no state that can change a result (under
// -race, none that is written at all).
func TestParallelMatchesSequentialCorpus(t *testing.T) {
	for _, c := range determinismCorpus() {
		for _, v := range []Variant{Oblivious, SemiOblivious, Restricted} {
			if c.opt.StopOnCyclicSkolem && v != SemiOblivious {
				continue
			}
			name := c.name + "/" + v.String()
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				pin, ok := corpusPins[name]
				if !ok {
					t.Fatal("no pin recorded")
				}
				res, ranges := runStreamed(t, c, v)
				if got := resultDigest(res); got != pin.digest {
					t.Errorf("digest %s (%v, %+v), want %s", got, res.Outcome, res.Stats, pin.digest)
				}
				if len(ranges) != pin.emits {
					t.Errorf("%d emitted ranges, want %d", len(ranges), pin.emits)
				}
				if got := normalizeRanges(ranges); !reflect.DeepEqual(got, pin.ranges) {
					t.Errorf("stream range union %v, want %v", got, pin.ranges)
				}
			})
		}
	}
}
