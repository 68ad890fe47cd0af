package chase

// parallel.go is the generation-based parallel chase engine: the
// phase-split refactor of the sequential trigger loop.
//
// The key observation is that the sequential FIFO engine is already a
// level-synchronized computation in disguise. Its queue alternates
// between "the triggers known at the start of level G" and "the
// triggers discovered from level G's facts", and FIFO order never
// interleaves the two. That makes the loop splittable into explicit
// phases per generation G:
//
//  1. Writer phase — pop and apply exactly the triggers pending at the
//     start of G, in FIFO order, under the single writer: restricted
//     satisfaction checks against the live instance, dedup via the
//     trigger TupleSet, Skolem/null invention, Instance.Add. Identical
//     to the sequential loop except that per-fact trigger discovery is
//     deferred.
//  2. Freeze — Instance.Freeze marks the instance read-only and yields
//     the generation's Snapshot (the checked frozen-read contract).
//  3. Match phase — the generation's delta facts are partitioned into
//     chunks claimed by a bounded set of stripe workers, each with its
//     own MatchScratch and pending-trigger arena. A worker discovers
//     the triggers anchored at each delta fact via the snapshot's
//     as-of enumeration (only facts <= the anchor participate — the
//     exact view the sequential engine matched against right after
//     adding that fact) and pre-filters candidates already in the
//     trigger set. Cancellation is polled per chunk.
//  4. Merge — back under the writer, the recorded candidates are
//     replayed through Engine.offer in ascending anchor-fact order
//     (chunk order, then discovery order within the chunk): the same
//     offers, in the same order, as the sequential engine's inline
//     discovery. Then G+1 begins.
//
// Because applications, term invention, dedup and stats all happen under
// the writer in sequential order, and the merged discovery stream is
// order-identical, the parallel engine is bit-for-bit deterministic:
// same fact ids, same null ordinals and Skolem terms, same outcome and
// statistics as the sequential engine, at every worker count.

import (
	"context"
	"sync"
	"sync/atomic"

	"chaseterm/internal/instance"
)

const (
	// minParallelDelta is the generation size below which the match phase
	// runs inline on the writer goroutine: fanning goroutines out costs
	// more than matching a handful of facts.
	minParallelDelta = 48
	// chunksPerStripe oversubscribes chunks per worker so a stripe that
	// lands on expensive anchors does not straggle the phase.
	chunksPerStripe = 4
	// minChunkFacts bounds chunk-claim overhead for mid-size deltas.
	minChunkFacts = 16
)

// stripe is one worker's private matching state, reused across
// generations: the homomorphism scratch, the frontier-projection buffer
// of the duplicate pre-filter, and the arena of recorded candidate
// triggers. Everything a stripe touches during a phase is either owned
// by it or frozen (the snapshot, the compiled rules, the trigger set).
type stripe struct {
	e       *Engine
	id      int32
	match   instance.MatchScratch
	arena   []instance.TermID // recorded offers: rule, nvars, binding...
	frbuf   []instance.TermID
	curRule int
	record  func([]instance.TermID) bool // recordOffer, hoisted once
}

// chunkRef locates one chunk's records for the ordered merge: the slice
// [start, end) of stripes[worker].arena. Written by exactly one worker,
// read by the writer after the phase barrier.
type chunkRef struct {
	worker     int32
	start, end int32
}

// parRun is the engine's reusable fan-out state.
type parRun struct {
	stripes []stripe
	refs    []chunkRef
	next    atomic.Int32 // chunk claim counter
	aborted atomic.Bool  // set by a worker that observed cancellation
}

func newParRun(e *Engine, workers int) *parRun {
	p := &parRun{stripes: make([]stripe, workers)}
	for i := range p.stripes {
		st := &p.stripes[i]
		st.e = e
		st.id = int32(i)
		st.record = st.recordOffer
	}
	return p
}

// runStripes fans nItems work items out over the stripes. Items are
// claimed with an atomic counter; item i's records land in refs[i], so
// the merge can visit them in item order regardless of which stripe ran
// them. Workers poll done once per claimed item. Reports whether the
// phase was aborted by cancellation (in which case the records are
// incomplete and must not be merged). The WaitGroup barrier both drains
// the goroutines and publishes every stripe's writes to the writer.
func (p *parRun) runStripes(done <-chan struct{}, nItems int, work func(st *stripe, item int)) bool {
	for w := range p.stripes {
		p.stripes[w].arena = p.stripes[w].arena[:0]
	}
	if cap(p.refs) < nItems {
		p.refs = make([]chunkRef, nItems)
	}
	p.refs = p.refs[:nItems]
	p.next.Store(0)
	p.aborted.Store(false)
	nw := len(p.stripes)
	if nw > nItems {
		nw = nItems
	}
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		st := &p.stripes[w]
		go func() {
			defer wg.Done()
			for {
				item := int(p.next.Add(1)) - 1
				if item >= nItems || p.aborted.Load() {
					return
				}
				if canceled(done) {
					p.aborted.Store(true)
					return
				}
				start := int32(len(st.arena))
				work(st, item)
				p.refs[item] = chunkRef{worker: st.id, start: start, end: int32(len(st.arena))}
			}
		}()
	}
	wg.Wait()
	return p.aborted.Load()
}

// mergeStripes replays the recorded candidate triggers through
// Engine.offer in item order — ascending anchor-fact order — which is
// exactly the order the sequential engine discovers them in. offer
// re-checks the trigger identity set, so candidates recorded twice
// (e.g. one homomorphism found through two anchors in different chunks)
// deduplicate here just as they would inline.
func (e *Engine) mergeStripes() {
	p := e.par
	for _, r := range p.refs {
		buf := p.stripes[r.worker].arena[r.start:r.end]
		for i := 0; i < len(buf); {
			rule := int(buf[i])
			nb := int(buf[i+1])
			i += 2
			e.offer(rule, buf[i:i+nb])
			i += nb
		}
	}
}

// recordOffer is the stripe's match callback: the inner loop of the
// parallel match phase. It drops candidates whose trigger identity is
// already known — the steady state of a saturating run, and the probe
// whose cost the fan-out exists to spread — and records the rest for
// the ordered merge. Allocation-free once the stripe's buffers have
// grown to the workload (pinned by TestStripeMatchAllocFree).
//
//chaselint:hotpath
func (st *stripe) recordOffer(b []instance.TermID) bool {
	e := st.e
	key := b
	if e.variant == SemiOblivious {
		st.frbuf = st.frbuf[:0]
		for _, vi := range e.rules[st.curRule].frontier {
			st.frbuf = append(st.frbuf, b[vi])
		}
		key = st.frbuf
	}
	if e.seen.Contains(int32(st.curRule), key) {
		return true
	}
	st.arena = append(st.arena, instance.TermID(st.curRule), instance.TermID(len(b)))
	st.arena = append(st.arena, b...)
	return true
}

// matchFact discovers the candidate triggers anchored at one delta
// fact, against the snapshot as of that fact's insertion.
//
//chaselint:hotpath
func (st *stripe) matchFact(snap instance.Snapshot, fid instance.FactID) {
	e := st.e
	pred := snap.Fact(fid).Pred
	for _, ra := range e.byPred[pred] {
		st.curRule = ra[0]
		snap.FindHomsAnchoredAsOfWith(&st.match, e.rules[ra[0]].body, ra[1], fid, st.record)
	}
}

// discoverAsOf is the writer-side twin of matchFact for small deltas:
// it offers directly (no record/merge round trip) but still matches
// through the snapshot's as-of view, so the discovery order is the
// sequential engine's.
//
//chaselint:hotpath
func (e *Engine) discoverAsOf(snap instance.Snapshot, fid instance.FactID) {
	pred := snap.Fact(fid).Pred
	for _, ra := range e.byPred[pred] {
		e.curRule = ra[0]
		snap.FindHomsAnchoredAsOfWith(&e.match, e.rules[ra[0]].body, ra[1], fid, e.offerFn)
	}
}

// matchDelta runs the generation's match phase over the delta facts
// [lo, Size()): freeze, fan out (or match inline for small deltas),
// merge. Reports whether the phase observed cancellation, in which case
// nothing was merged and the run must stop.
func (e *Engine) matchDelta(done <-chan struct{}, lo instance.FactID) bool {
	hi := instance.FactID(e.in.Size())
	if lo == hi {
		return false
	}
	snap := e.in.Freeze()
	n := int(hi - lo)
	if n < minParallelDelta {
		for fid := lo; fid < hi; fid++ {
			e.discoverAsOf(snap, fid)
		}
		snap.Release()
		return false
	}
	chunk := n / (len(e.par.stripes) * chunksPerStripe)
	if chunk < minChunkFacts {
		chunk = minChunkFacts
	}
	nc := (n + chunk - 1) / chunk
	aborted := e.par.runStripes(done, nc, func(st *stripe, ci int) {
		clo := lo + instance.FactID(ci*chunk)
		chi := clo + instance.FactID(chunk)
		if chi > hi {
			chi = hi
		}
		for fid := clo; fid < chi; fid++ {
			st.matchFact(snap, fid)
		}
	})
	snap.Release()
	if aborted {
		return true
	}
	e.mergeStripes()
	return false
}

// seedParallel runs the seed joins — every rule body against the
// initial instance — fanned out per rule and merged in rule order,
// matching the sequential seed loop's offers exactly. Reports
// cancellation.
func (e *Engine) seedParallel(done <-chan struct{}) bool {
	if canceled(done) {
		return true
	}
	if len(e.rules) == 0 {
		return false
	}
	snap := e.in.Freeze()
	aborted := e.par.runStripes(done, len(e.rules), func(st *stripe, ri int) {
		st.curRule = ri
		snap.FindHomsWith(&st.match, e.rules[ri].body, nil, st.record)
	})
	snap.Release()
	if aborted {
		return true
	}
	e.mergeStripes()
	return false
}

// emitBatch delivers the generation's delta [lo, Size()) to the stream
// sink as one coalesced range (see the StreamSink contract).
func (e *Engine) emitBatch(lo instance.FactID) {
	if e.sink == nil {
		return
	}
	hi := instance.FactID(e.in.Size())
	if hi > lo {
		e.sink.EmitFacts(lo, hi, e.stats)
	}
}

// runParallel is RunContext for Options.Workers > 1 (FIFO order): the
// generation loop described at the top of this file. The stopping rules
// replicate the sequential loop exactly; whenever a stop decision needs
// the pending-trigger count (budget stops) or the run ends a
// generation, the match phase has already folded the delta's
// discoveries in, so outcomes and statistics agree with the sequential
// engine at every stopping point. The one documented exception is
// cancellation: a Canceled result may leave the last delta's triggers
// undiscovered (its statistics are explicitly partial).
func (e *Engine) runParallel(ctx context.Context) (*Result, error) {
	done := ctx.Done()
	e.stats.InitialFacts = e.in.Size()
	if e.par == nil {
		e.par = newParRun(e, e.opt.Workers)
	}
	if e.seedParallel(done) {
		return e.result(Canceled), ctx.Err()
	}
	e.deferDiscovery = true
	defer func() { e.deferDiscovery = false }()
	outcome := Terminated
	steps := 0
	for {
		// Generation boundary: the budget check the sequential loop makes
		// at the top of what would be this generation's first iteration.
		if e.stats.TriggersApplied >= e.opt.MaxTriggers || e.in.Size() >= e.opt.MaxFacts {
			if e.pending > 0 {
				outcome = BudgetExceeded
			}
			break
		}
		if e.pending == 0 {
			break
		}
		// Writer phase: this generation's batch is exactly the triggers
		// pending now; discoveries from its facts enqueue for the next.
		batch := e.pending
		deltaLo := instance.FactID(e.in.Size())
		stopped := false
		var stopOutcome Outcome
		for i := 0; i < batch; i++ {
			if steps%ctxCheckInterval == 0 {
				if canceled(done) {
					e.emitBatch(deltaLo)
					return e.result(Canceled), ctx.Err()
				}
				if e.sink != nil {
					e.sink.Progress(e.stats)
				}
			}
			steps++
			if i > 0 && (e.stats.TriggersApplied >= e.opt.MaxTriggers || e.in.Size() >= e.opt.MaxFacts) {
				// Mid-batch budget stop: the rest of the batch is still
				// pending, so the sequential outcome is BudgetExceeded.
				stopped, stopOutcome = true, BudgetExceeded
				break
			}
			id, _ := e.pop()
			cr, fr := e.frontierOf(id)
			if e.variant == Restricted && e.headSatisfied(cr, fr) {
				e.stats.TriggersSatisfied++
				continue
			}
			added, maxDepth := e.apply(cr, fr)
			e.stats.TriggersApplied++
			if added == 0 {
				e.stats.TriggersNoop++
			}
			if maxDepth > e.stats.MaxTermDepth {
				e.stats.MaxTermDepth = maxDepth
			}
			if maxDepth > e.opt.MaxDepth {
				stopped, stopOutcome = true, DepthExceeded
				break
			}
			if e.cyclicSeen {
				stopped, stopOutcome = true, CyclicTerm
				break
			}
		}
		e.emitBatch(deltaLo)
		// Match phase over the delta — also on early stops, so that
		// pending and TriggersEnqueued reflect every added fact just as
		// the sequential engine's inline discovery would.
		if e.matchDelta(done, deltaLo) {
			return e.result(Canceled), ctx.Err()
		}
		if stopped {
			outcome = stopOutcome
			break
		}
	}
	return e.result(outcome), nil
}
