package instance

// Snapshot is a checked read view of an Instance frozen at a point in
// time — one generation of the parallel chase. Freeze returns the view
// and arms the instance's (and its term table's) mutation guards: while
// at least one snapshot is live, the hot mutators (Add, FreshNull,
// Skolem, Pred, Const) panic instead of racing the readers. That turns
// the package's single-writer/frozen-read contract from a doc comment
// into an API misuse of which fails loudly in any test that reaches it,
// not only under -race.
//
// A Snapshot is a small value: pass it by value, share it freely among
// reader goroutines, and have the writer call Release exactly once when
// every reader has finished (synchronize the hand-off, e.g. with a
// sync.WaitGroup). Freezes nest: each Freeze must be paired with one
// Release, and the instance is writable again when the last live
// snapshot is released.
//
// Reads through a Snapshot see exactly the facts that existed at Freeze
// time — the horizon. The chase engine additionally needs "as of"
// reads that replay history inside the frozen prefix: a fact's triggers
// must be discovered against the instance as it was when that fact was
// added. FindHomsAnchoredAsOfWith provides that, relying on the
// store's insertion-ordered extents and posting chains (see
// matchLevel.next) to bound enumeration with a single compare.
type Snapshot struct {
	in      *Instance
	horizon FactID
	gen     uint64
}

// Freeze marks the instance read-only and returns a snapshot of its
// current extent. Mutating the instance (or interning into its term
// table) while any snapshot is live panics. Freeze itself must be
// called by the writer, like every other non-read method.
func (in *Instance) Freeze() Snapshot {
	in.frozen.Add(1)
	in.Terms.frozen.Add(1)
	in.gen++
	return Snapshot{in: in, horizon: FactID(in.facts.Len()), gen: in.gen}
}

// Release ends the snapshot's read phase, re-arming the instance for
// mutation once no other snapshot remains live. It must be called by
// the writer after synchronizing with every reader of the snapshot.
func (s Snapshot) Release() {
	if s.in.frozen.Add(-1) < 0 {
		panic("instance: Snapshot.Release without a matching Freeze")
	}
	s.in.Terms.frozen.Add(-1)
}

// Horizon returns the exclusive upper bound of the fact ids visible
// through the snapshot: exactly the facts [0, Horizon()) existed when
// it was taken.
func (s Snapshot) Horizon() FactID { return s.horizon }

// Generation returns the snapshot's freeze ordinal (1 for the
// instance's first Freeze). Diagnostics only.
func (s Snapshot) Generation() uint64 { return s.gen }

// Size returns the number of facts visible through the snapshot.
func (s Snapshot) Size() int { return int(s.horizon) }

// Fact returns a visible fact. Requesting a fact at or beyond the
// horizon is a misuse and panics.
func (s Snapshot) Fact(id FactID) Fact {
	if id >= s.horizon {
		panic("instance: Snapshot.Fact beyond horizon")
	}
	return s.in.Fact(id)
}

// Contains reports whether the fact p(args...) is visible through the
// snapshot.
//
//chaselint:hotpath
func (s Snapshot) Contains(p PredID, args []TermID) bool {
	id, ok := s.in.Lookup(p, args)
	return ok && id < s.horizon
}

// FindHomsWith is Instance.FindHomsWith restricted to the snapshot's
// horizon, safe to run from any number of goroutines with per-goroutine
// scratches while the snapshot is live.
//
//chaselint:hotpath
func (s Snapshot) FindHomsWith(sc *MatchScratch, p *Pattern, initial []TermID, yield func(binding []TermID) bool) bool {
	checkInitial(p, initial)
	p.Compile()
	binding := sc.prepare(p)
	copy(binding, initial)
	return s.in.runPlan(p, p.plans[0], sc, binding, s.horizon, yield)
}

// HasHomWith is Instance.HasHomWith restricted to the snapshot's
// horizon. Allocation-free.
//
//chaselint:hotpath
func (s Snapshot) HasHomWith(sc *MatchScratch, p *Pattern, initial []TermID) bool {
	checkInitial(p, initial)
	p.Compile()
	binding := sc.prepare(p)
	copy(binding, initial)
	return !s.in.runPlan(p, p.plans[0], sc, binding, s.horizon, nil)
}

// FindHomsAnchoredAsOfWith enumerates the homomorphisms that map the
// pattern atom at index anchor exactly to anchorFact, seeing only the
// facts that existed when anchorFact was added (ids <= anchorFact).
// This reproduces, against a frozen batch, the enumeration the
// sequential chase performs immediately after each Add: for every
// anchor fact the discovered bindings — and their order — are
// identical, which is what lets the parallel engine's merged trigger
// stream match the sequential one bit for bit.
//
//chaselint:hotpath
func (s Snapshot) FindHomsAnchoredAsOfWith(sc *MatchScratch, p *Pattern, anchor int, anchorFact FactID, yield func(binding []TermID) bool) bool {
	if anchorFact >= s.horizon {
		panic("instance: FindHomsAnchoredAsOfWith anchor beyond horizon")
	}
	p.Compile()
	binding := sc.prepare(p)
	if !matchAtomInto(&p.Atoms[anchor], s.in.facts.Tuple(int32(anchorFact)), binding, &sc.anchor) {
		return true
	}
	return s.in.runPlan(p, p.plans[1+anchor], sc, binding, anchorFact+1, yield)
}
