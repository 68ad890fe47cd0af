package chase

// pending is one queued trigger: its rule, and ref, which is the anchor
// fact of a unique rule's trigger (see uniqueTriggers) and the member id
// in the engine's identity set of any other trigger.
type pending struct {
	rule int32
	ref  int32
}

// ring is the engine's FIFO of pending triggers: a power-of-two buffer
// that reuses the slots of popped triggers and doubles when full, so it
// holds only the triggers still pending. The zero value is empty.
type ring struct {
	buf  []pending
	head int // index of the oldest entry
	n    int // number of entries
}

// push appends p at the tail.
//
//chaselint:hotpath
func (q *ring) push(p pending) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
}

// pop removes and returns the oldest entry.
//
//chaselint:hotpath
func (q *ring) pop() (pending, bool) {
	if q.n == 0 {
		return pending{}, false
	}
	p := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return p, true
}

// grow doubles the buffer, copying the entries in FIFO order to its
// start.
func (q *ring) grow() {
	buf := make([]pending, max(2*len(q.buf), 8))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
