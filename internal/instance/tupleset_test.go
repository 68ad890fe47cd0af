package instance

import (
	"math/rand"
	"testing"
)

// TestTupleSetGrowKeepsInserted: through many table growths, every
// inserted key stays findable under its id.
func TestTupleSetGrowKeepsInserted(t *testing.T) {
	var s TupleSet
	rng := rand.New(rand.NewSource(1))
	inserted := map[int32][2]TermID{}
	for i := 0; i < 5000; i++ {
		key := [2]TermID{TermID(i), TermID(rng.Intn(100))}
		id, added := s.Insert(1, key[:])
		if !added {
			t.Fatalf("fresh key %v reported as a hit", key)
		}
		inserted[id] = key
	}
	if s.Len() != len(inserted) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(inserted))
	}
	for id, key := range inserted {
		if got, ok := s.Lookup(1, key[:]); !ok || got != id {
			t.Fatalf("inserted %v: Lookup = (%d, %v), want (%d, true)", key, got, ok, id)
		}
	}
	// The table grows at 3/4 load by doubling: n members sit in at
	// least 4n/3 slots, and far fewer than 4n.
	if n := len(inserted); len(s.slots)*3 < n*4 || len(s.slots) > 4*n {
		t.Errorf("%d slots for %d members", len(s.slots), n)
	}
}
