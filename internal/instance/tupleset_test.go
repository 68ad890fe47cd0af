package instance

import (
	"math/rand"
	"testing"
)

// TestTupleSetAppendNeverFound: an appended member takes an id but no
// hash slot, so neither Lookup nor Insert finds it; inserting the same
// key adds a second member.
func TestTupleSetAppendNeverFound(t *testing.T) {
	var s TupleSet
	key := []TermID{3, 4}
	if id := s.Append(7, key); id != 0 {
		t.Fatalf("first append got id %d, want 0", id)
	}
	if _, ok := s.Lookup(7, key); ok {
		t.Fatal("Lookup found an appended key")
	}
	if s.Contains(7, key) {
		t.Fatal("Contains found an appended key")
	}
	id, added := s.Insert(7, key)
	if !added || id != 1 {
		t.Fatalf("Insert of an appended key = (%d, %v), want (1, true)", id, added)
	}
	if got, ok := s.Lookup(7, key); !ok || got != 1 {
		t.Fatalf("Lookup = (%d, %v), want the inserted member 1", got, ok)
	}
}

// TestTupleSetMixedIDsDense: Insert and Append share one id sequence,
// dense and in call order, and Tuple, Tag and Len cover both kinds of
// member. Duplicate inserts return the first id and add nothing.
func TestTupleSetMixedIDsDense(t *testing.T) {
	var s TupleSet
	type member struct {
		tag   int32
		tuple []TermID
	}
	var want []member
	for i := 0; i < 40; i++ {
		m := member{tag: int32(i % 3), tuple: make([]TermID, i%4)}
		for j := range m.tuple {
			m.tuple[j] = TermID(i*10 + j)
		}
		var id int32
		if i%2 == 0 {
			id = s.Append(m.tag, m.tuple)
		} else {
			var added bool
			id, added = s.Insert(m.tag, m.tuple)
			if !added {
				t.Fatalf("member %d: Insert of a fresh key reported a hit", i)
			}
			if again, added := s.Insert(m.tag, m.tuple); added || again != id {
				t.Fatalf("member %d: duplicate Insert = (%d, %v), want (%d, false)", i, again, added, id)
			}
		}
		if id != int32(i) {
			t.Fatalf("member %d got id %d", i, id)
		}
		want = append(want, m)
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	for i, m := range want {
		if s.Tag(int32(i)) != m.tag || !termsEqual(s.Tuple(int32(i)), m.tuple) {
			t.Errorf("member %d = %d%v, want %d%v", i, s.Tag(int32(i)), s.Tuple(int32(i)), m.tag, m.tuple)
		}
	}
}

// TestTupleSetGrowKeepsInserted: through many table growths with appends
// interleaved, every inserted key stays findable under its id and no
// appended key becomes findable.
func TestTupleSetGrowKeepsInserted(t *testing.T) {
	var s TupleSet
	rng := rand.New(rand.NewSource(1))
	inserted := map[int32][2]TermID{}
	var appended [][2]TermID
	for i := 0; i < 5000; i++ {
		key := [2]TermID{TermID(i), TermID(rng.Intn(100))}
		if rng.Intn(3) == 0 {
			s.Append(1, key[:])
			appended = append(appended, key)
			continue
		}
		id, added := s.Insert(1, key[:])
		if !added {
			t.Fatalf("fresh key %v reported as a hit", key)
		}
		inserted[id] = key
	}
	if s.Len() != len(inserted)+len(appended) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(inserted)+len(appended))
	}
	for id, key := range inserted {
		if got, ok := s.Lookup(1, key[:]); !ok || got != id {
			t.Fatalf("inserted %v: Lookup = (%d, %v), want (%d, true)", key, got, ok, id)
		}
	}
	for _, key := range appended {
		if s.Contains(1, key[:]) {
			t.Fatalf("appended %v became findable", key)
		}
	}
	// The load factor counts inserted members only: a table holding n of
	// them has at least 4n/3 slots and at most twice that.
	if n := len(inserted); len(s.slots)*3 < n*4 || len(s.slots) > 4*n {
		t.Errorf("%d slots for %d inserted members", len(s.slots), n)
	}
}

// TestTupleSetAppendOnly: a set filled only by Append never builds a
// hash table, and its members read back in order.
func TestTupleSetAppendOnly(t *testing.T) {
	var s TupleSet
	for i := 0; i < 100; i++ {
		s.Append(int32(i), []TermID{TermID(i), TermID(i + 1)})
	}
	if len(s.slots) != 0 {
		t.Errorf("appends built a %d-slot table", len(s.slots))
	}
	for i := 0; i < 100; i++ {
		if got := s.Tuple(int32(i)); s.Tag(int32(i)) != int32(i) || got[0] != TermID(i) || got[1] != TermID(i+1) {
			t.Fatalf("member %d = %d%v", i, s.Tag(int32(i)), got)
		}
	}
}
