package chase

import "testing"

// TestRingKeepsFIFOOrder: push and pop interleavings that wrap around the
// buffer and grow it while its head is mid-buffer keep FIFO order,
// against a slice reference. Each size is the number of entries the ring
// holds while its head walks around the buffer: 7, 8 and 9 sit around
// the first buffer's 8 slots, 1 and 1,000 at the ends.
func TestRingKeepsFIFOOrder(t *testing.T) {
	for _, size := range []int{1, 7, 8, 9, 1000} {
		var q ring
		var ref []pending
		next := int32(0)
		push := func() {
			p := pending{rule: next % 5, ref: next}
			next++
			q.push(p)
			ref = append(ref, p)
		}
		pop := func() {
			got, ok := q.pop()
			if len(ref) == 0 {
				if ok {
					t.Fatalf("size %d: pop of an empty ring returned %v", size, got)
				}
				return
			}
			if !ok || got != ref[0] {
				t.Fatalf("size %d: pop = (%v, %v), want %v", size, got, ok, ref[0])
			}
			ref = ref[1:]
		}
		for range size {
			push()
		}
		// Steady state: the head walks around the buffer several times.
		for i := range 3*size + 17 {
			pop()
			push()
			if i%3 == 0 {
				push()
				pop()
			}
		}
		// Fill past the buffer with the head mid-buffer, so it grows and
		// copies a wrapped queue; then drain some and grow again.
		for range 2 {
			if q.head == 0 {
				t.Fatalf("size %d: the head did not move", size)
			}
			slots := len(q.buf)
			for q.n <= slots {
				push()
			}
			if len(q.buf) <= slots {
				t.Fatalf("size %d: %d entries in %d slots, no growth", size, q.n, len(q.buf))
			}
			for range size {
				pop()
			}
		}
		if q.n != len(ref) {
			t.Fatalf("size %d: ring holds %d entries, want %d", size, q.n, len(ref))
		}
		if l := len(q.buf); l&(l-1) != 0 || l < q.n {
			t.Fatalf("size %d: buffer of %d slots for %d entries", size, l, q.n)
		}
		for len(ref) > 0 {
			pop()
		}
		pop()
		if q.n != 0 {
			t.Fatalf("size %d: drained ring holds %d entries", size, q.n)
		}
	}
}
