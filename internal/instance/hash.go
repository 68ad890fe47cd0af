package instance

import "math/bits"

// Integer-keyed hashing for the chase hot path. The three steady-state
// dedup structures — fact lookup, Skolem interning, trigger identity —
// all key on a small integer tag plus a tuple of TermIDs, and all three
// are a TupleSet. Hashing mixes the raw words and finishes with a
// murmur3-style avalanche, so the low bits are usable as an index into
// power-of-two open-addressed tables. Nothing here materializes a key:
// probes compare against the arena that already stores the members.

const hashSeed uint64 = 0x9e3779b97f4a7c15

func hashMix(h, v uint64) uint64 {
	h ^= v
	h *= 0x9e3779b185ebca87
	return bits.RotateLeft64(h, 27)
}

func hashFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hashTuple hashes a tagged TermID tuple.
func hashTuple(tag int32, tuple []TermID) uint64 {
	h := hashMix(hashSeed, uint64(uint32(tag))^uint64(len(tuple))<<32)
	for _, t := range tuple {
		h = hashMix(h, uint64(uint32(t)))
	}
	return hashFinish(h)
}

func termsEqual(a, b []TermID) bool {
	if len(a) != len(b) {
		return false
	}
	for i, t := range a {
		if t != b[i] {
			return false
		}
	}
	return true
}

// TupleSet is an insert-only open-addressed hash set of (tag, tuple) keys
// over TermIDs, backed by a flat arena: member tuples are stored
// contiguously, and set membership is decided by comparing the probe key
// against the arena directly — no per-key string or slice materialization.
// A hit performs zero allocations; a miss amortizes to the arena append.
//
// Member ids are dense and assigned in insertion order, so a set doubles
// as an id-indexed store. The zero value is ready to use. TupleSet holds
// an instance's facts (tag = predicate, id = FactID), a term table's
// Skolem terms (tag = function symbol), the chase engine's triggers
// that can repeat (tag = rule) and the guarded decider's node types,
// whose ids may be node-local; it is also the frontier dedup of the
// sequence explorer. Like Instance it is single-writer (see the package
// comment).
type TupleSet struct {
	slots []int32  // id+1 of members; 0 = empty
	tags  []int32  // per id
	offs  []int32  // len = len(tags)+1; tuple i is arena[offs[i]:offs[i+1]]
	arena []TermID // concatenated member tuples
}

// Len returns the number of member tuples.
func (s *TupleSet) Len() int { return len(s.tags) }

// Tuple returns a read-only view of member id's tuple. The slice aliases
// the arena, capped at its own length, and stays valid across later
// inserts.
func (s *TupleSet) Tuple(id int32) []TermID {
	lo, hi := s.offs[id], s.offs[id+1]
	return s.arena[lo:hi:hi]
}

// Tag returns member id's tag.
func (s *TupleSet) Tag(id int32) int32 { return s.tags[id] }

func (s *TupleSet) keyAt(id int32) (int32, []TermID) {
	return s.tags[id], s.arena[s.offs[id]:s.offs[id+1]]
}

// Insert adds (tag, tuple) if absent. It returns the member id and whether
// the key was newly added. The tuple is copied into the arena on a miss;
// a hit allocates nothing.
//
//chaselint:hotpath
func (s *TupleSet) Insert(tag int32, tuple []TermID) (int32, bool) {
	if len(s.slots) == 0 {
		s.grow(16)
	} else if len(s.tags)*4 >= len(s.slots)*3 {
		s.grow(len(s.slots) * 2)
	}
	h := hashTuple(tag, tuple)
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for {
		v := s.slots[i]
		if v == 0 {
			id := s.append(tag, tuple)
			s.slots[i] = id + 1
			return id, true
		}
		t, tup := s.keyAt(v - 1)
		if t == tag && termsEqual(tup, tuple) {
			return v - 1, false
		}
		i = (i + 1) & mask
	}
}

// append stores (tag, tuple) under the next id, copying the tuple into
// the arena, and returns the id; Insert enters it in the table.
//
//chaselint:hotpath
func (s *TupleSet) append(tag int32, tuple []TermID) int32 {
	if len(s.offs) == 0 {
		reserve(&s.offs, 1)
		s.offs = append(s.offs, 0)
	}
	id := int32(len(s.tags))
	reserve(&s.tags, 1)
	s.tags = append(s.tags, tag)
	// Not append(s.arena, tuple...): that form stores the whole header.
	n := len(s.arena)
	reserve(&s.arena, len(tuple))
	s.arena = s.arena[:n+len(tuple)]
	copy(s.arena[n:], tuple)
	reserve(&s.offs, 1)
	s.offs = append(s.offs, int32(len(s.arena)))
	return id
}

// Lookup returns the member id of (tag, tuple) if present. It performs
// no allocation.
//
//chaselint:hotpath
func (s *TupleSet) Lookup(tag int32, tuple []TermID) (int32, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	h := hashTuple(tag, tuple)
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for {
		v := s.slots[i]
		if v == 0 {
			return 0, false
		}
		t, tup := s.keyAt(v - 1)
		if t == tag && termsEqual(tup, tuple) {
			return v - 1, true
		}
		i = (i + 1) & mask
	}
}

// Contains reports whether (tag, tuple) is a member.
//
//chaselint:hotpath
func (s *TupleSet) Contains(tag int32, tuple []TermID) bool {
	_, ok := s.Lookup(tag, tuple)
	return ok
}

// grow re-slots the members into a table of size slots, walking the old
// table.
func (s *TupleSet) grow(size int) {
	old := s.slots
	s.slots = make([]int32, size)
	mask := uint64(size - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		tag, tup := s.keyAt(v - 1)
		i := hashTuple(tag, tup) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = v
	}
}

// reserve makes room in *s for n more elements. When it must
// reallocate, it at least doubles the capacity: append grows a large
// slice by about 1.25 times, so an arena grown by append alone is
// copied and allocated about five times its final size, and one grown
// through reserve about twice. It stores the slice header only when it
// reallocates, so the caller's following s = append(s, ...) fills in
// place and writes just the length: a pointer store on every append
// would cost a GC write barrier each time while the collector runs.
func reserve[T any](s *[]T, n int) {
	if len(*s)+n <= cap(*s) {
		return
	}
	grown := make([]T, len(*s), max(2*cap(*s), len(*s)+n, 8))
	copy(grown, *s)
	*s = grown
}
