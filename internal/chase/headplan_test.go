package chase

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
	"chaseterm/internal/workload"
)

// digestCases pins chase runs over scale-ontology TBoxes (12 concepts,
// 6 roles, 40 axioms, as in BenchmarkEngineScaleOntology) on 1500-fact
// ABoxes: tbox is the position, in the seed's stream of TBoxes, of the
// first one core.DecideLinearContext certifies
// semi-oblivious-terminating (found when the digests were recorded), and
// digest hashes the outcome, every Stats field and every fact in FactID
// order. The restricted digests come from a planner that ignored the
// seeds of head patterns: join plans only order the enumeration and the
// head check only asks whether a match exists, so no planner change may
// move them. The semi-oblivious and oblivious digests pin fact ids,
// Skolem names and null ordinals, which follow from the insertion order
// of the fact store, the Skolem interner and the trigger set: no change
// to how those stores are kept may move them.
var digestCases = []struct {
	seed    int64
	tbox    int
	variant Variant
	digest  string
}{
	{20, 2463, Restricted, "e8adfc419ff60321"},
	{21, 933, Restricted, "c3f54c91b2117d85"},
	{22, 448, Restricted, "32393021bd8d183c"},
	{23, 1165, Restricted, "ae54a7cafe3fdb89"},
	{24, 956, Restricted, "fff1430b337efb36"},
	{25, 1016, Restricted, "298192ed50c394aa"},
	{26, 255, Restricted, "4209c51a75f15007"},
	{27, 914, Restricted, "9c1e37254a459b63"},
	{28, 647, Restricted, "47bdaff2182e7022"},
	{29, 462, Restricted, "30c876fed6f5634d"},
	{30, 1412, Restricted, "ab011dde6c4f4051"},
	{31, 436, Restricted, "9b7880fd40456b0c"},
	{32, 2838, Restricted, "1830f342028bfcb9"},
	{33, 2477, Restricted, "4230eb2bbf83eca6"},
	{34, 1706, Restricted, "1ac483b428d8182e"},
	{35, 422, Restricted, "af63fd4aae6b498e"},
	{36, 604, Restricted, "f3ea31b4cb9ca601"},
	{37, 1023, Restricted, "eb9aacc7519d11df"},
	{38, 126, Restricted, "cb424fc21c4f7e0a"},
	{39, 2020, Restricted, "02ef65a12f6edbf0"},
	{22, 448, SemiOblivious, "cfb04f033635e2bc"},
	{34, 1706, SemiOblivious, "35fcc02c341cca8f"},
	{36, 604, SemiOblivious, "3b1e6099b0cac518"},
	{39, 2020, SemiOblivious, "62abaf0e6006a2b0"},
	{21, 933, Oblivious, "ca5954353b71c8c6"},
	{26, 255, Oblivious, "832f0311bd509fc8"},
	{33, 2477, Oblivious, "7a0fcb6d74a759d6"},
	{38, 126, Oblivious, "ace7441cd835eb64"},
}

// scaleOntologyCase draws the seed's tbox-th TBox and a 1500-fact ABox
// over 300 constants for it.
func scaleOntologyCase(seed int64, tbox int) (*logic.RuleSet, []logic.Atom) {
	rng := rand.New(rand.NewSource(seed))
	var rules *logic.RuleSet
	for range tbox {
		rules = workload.RandomInclusionDependencies(rng, 12, 6, 40)
	}
	return rules, workload.RandomABox(rng, rules, 1500, 300)
}

// resultDigest hashes a chase result's outcome, statistics and facts in
// FactID order.
func resultDigest(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v %+v\n", res.Outcome, res.Stats)
	for id := 0; id < res.Instance.Size(); id++ {
		fmt.Fprintln(h, res.Instance.FactString(instance.FactID(id)))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestRestrictedHeadPlanDigests runs every pinned case and requires the
// recorded digest.
func TestRestrictedHeadPlanDigests(t *testing.T) {
	for _, c := range digestCases {
		rules, db := scaleOntologyCase(c.seed, c.tbox)
		in, err := instance.FromAtoms(db)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(in, rules, c.variant, Options{MaxFacts: 200_000, MaxTriggers: 400_000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res); got != c.digest {
			t.Errorf("seed %d, %v: digest %s (%v, %+v), want %s", c.seed, c.variant, got, res.Outcome, res.Stats, c.digest)
		}
	}
}
