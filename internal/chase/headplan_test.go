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

// restrictedCases pins restricted chase runs over scale-ontology TBoxes
// (12 concepts, 6 roles, 40 axioms, as in BenchmarkEngineScaleOntology)
// on 1500-fact ABoxes: tbox is the position, in the seed's stream of
// TBoxes, of the first one core.DecideLinearContext certifies
// semi-oblivious-terminating (found when the digests were recorded), and
// digest hashes the outcome, every Stats field and every fact in FactID
// order. The digests come from a planner that ignored the seeds of head
// patterns: join plans only order the enumeration and the head check
// only asks whether a match exists, so no planner change may move them.
var restrictedCases = []struct {
	seed   int64
	tbox   int
	digest string
}{
	{20, 2463, "e8adfc419ff60321"},
	{21, 933, "c3f54c91b2117d85"},
	{22, 448, "32393021bd8d183c"},
	{23, 1165, "ae54a7cafe3fdb89"},
	{24, 956, "fff1430b337efb36"},
	{25, 1016, "298192ed50c394aa"},
	{26, 255, "4209c51a75f15007"},
	{27, 914, "9c1e37254a459b63"},
	{28, 647, "47bdaff2182e7022"},
	{29, 462, "30c876fed6f5634d"},
	{30, 1412, "ab011dde6c4f4051"},
	{31, 436, "9b7880fd40456b0c"},
	{32, 2838, "1830f342028bfcb9"},
	{33, 2477, "4230eb2bbf83eca6"},
	{34, 1706, "1ac483b428d8182e"},
	{35, 422, "af63fd4aae6b498e"},
	{36, 604, "f3ea31b4cb9ca601"},
	{37, 1023, "eb9aacc7519d11df"},
	{38, 126, "cb424fc21c4f7e0a"},
	{39, 2020, "02ef65a12f6edbf0"},
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

// TestRestrictedHeadPlanDigests runs every pinned case sequentially and
// with CHASE_WORKERS (default 8) workers and requires the recorded
// digest both times.
func TestRestrictedHeadPlanDigests(t *testing.T) {
	workers := testWorkers(t)
	for _, c := range restrictedCases {
		rules, db := scaleOntologyCase(c.seed, c.tbox)
		for _, w := range []int{1, workers} {
			in, err := instance.FromAtoms(db)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(in, rules, Restricted, Options{MaxFacts: 200_000, MaxTriggers: 400_000, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res); got != c.digest {
				t.Errorf("seed %d, workers %d: digest %s (%v, %+v), want %s", c.seed, w, got, res.Outcome, res.Stats, c.digest)
			}
		}
	}
}
