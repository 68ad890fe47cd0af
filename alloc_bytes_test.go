package chaseterm

import (
	"context"
	"runtime"
	"testing"

	"chaseterm/internal/chase"
)

// allocBytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of f allocates, averaged over runs calls after a warm-up call.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestOntologyChaseAllocBytes pins the bytes allocated by the chase of
// the DL-Lite ontology case (see ontologyCase), database load included,
// and by one Strings call on its 26,049-fact semi-oblivious result: the
// engine's arenas grow by doubling, a one-atom rule's trigger waits in
// the queue as its anchor fact and keeps no identity key (the restricted
// chase keeps no trigger set at all), the posting index keeps only the
// columns the engine's plans probe (none for the semi-oblivious chase),
// and Strings sizes its text once. The bounds are the measured 3.21 MB,
// 1.99 MB and 1.18 MB plus 5%. The count pins (AllocsPerRun) miss a
// change that allocates as often but copies more; these catch it.
func TestOntologyChaseAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	rules, db := ontologyCase(t)
	for _, tc := range []struct {
		v           chase.Variant
		chase, strs float64 // strs 0: Strings not pinned
	}{
		{chase.SemiOblivious, 3_367_000, 1_235_000},
		{chase.Restricted, 2_090_000, 0},
	} {
		var res *chase.Result
		got := allocBytesPerRun(3, func() {
			var err error
			res, err = chase.RunFromAtomsContext(context.Background(), db, rules, tc.v,
				chase.Options{MaxFacts: 500_000, MaxTriggers: 500_000})
			if err != nil || res.Outcome != chase.Terminated {
				t.Fatalf("%v: %v %v", tc.v, res, err)
			}
		})
		t.Logf("%v: %d facts, chase %.0f bytes", tc.v, res.Instance.Size(), got)
		if got > tc.chase {
			t.Errorf("%v: chase allocates %.0f bytes, want at most %.0f", tc.v, got, tc.chase)
		}
		if tc.strs == 0 {
			continue
		}
		in := res.Instance
		strs := allocBytesPerRun(3, func() { in.Strings() })
		t.Logf("%v: Strings %.0f bytes", tc.v, strs)
		if strs > tc.strs {
			t.Errorf("%v: Strings on %d facts allocates %.0f bytes, want at most %.0f", tc.v, in.Size(), strs, tc.strs)
		}
	}
}
