package chaseterm

import (
	"chaseterm/internal/chase"
	"chaseterm/internal/instance"
)

// ChaseSink receives the facts of an AnalyzeChase run incrementally,
// instead of (or in addition to) the one-shot ChaseResult. Attach one
// with WithChaseSink; the analysis service uses this to stream chase
// results over HTTP as they are derived, so an instance far larger than
// any reasonable response body can still be served.
//
// Both callbacks run synchronously on the chase goroutine: a slow sink
// slows the run (which is the intended backpressure — the engine never
// derives unboundedly far ahead of the consumer), and implementations
// must not call back into the library.
type ChaseSink interface {
	// EmitFacts delivers a batch of newly derived facts, rendered in the
	// library's surface syntax (e.g. "hasFather(bob,f0_Y(bob))"), in
	// derivation order and without duplicates. The slice is reused
	// between calls: copy it if the sink retains facts past the call.
	// The strings themselves are not reused, but a batch's strings share
	// one allocation, so retaining any one of them keeps the whole
	// batch's text alive.
	// stats is the running total at emission time.
	EmitFacts(facts []string, stats ChaseStats)
	// Progress is a liveness heartbeat delivered between batches (every
	// ~1024 scheduler steps), covering stretches where the run is busy
	// but deriving nothing — e.g. a restricted chase skipping satisfied
	// triggers.
	Progress(stats ChaseStats)
}

// streamBatchSize bounds the fact batches handed to a ChaseSink. Large
// enough to amortize the per-batch delivery cost (a JSON event on the
// service's wire), small enough that the first facts of a run reach the
// consumer promptly.
const streamBatchSize = 256

// sinkAdapter bridges the engine-level chase.StreamSink (FactID ranges
// over the live instance) to the public ChaseSink (rendered batches),
// coalescing per-application ranges into batches of streamBatchSize.
// Facts are rendered back to back into buf, ending at ends; a flush
// converts buf to one string and hands the sink its per-fact substrings,
// so a batch costs one allocation rather than several per fact.
type sinkAdapter struct {
	in    *instance.Instance
	sink  ChaseSink
	buf   []byte
	ends  []int
	batch []string
}

func (a *sinkAdapter) EmitFacts(lo, hi instance.FactID, stats chase.Stats) {
	for id := lo; id < hi; id++ {
		a.buf = a.in.AppendFact(a.buf, id)
		a.ends = append(a.ends, len(a.buf))
	}
	if len(a.ends) >= streamBatchSize {
		a.flush(stats)
	}
}

func (a *sinkAdapter) Progress(stats chase.Stats) {
	// Flush the partial batch first so the heartbeat never overtakes
	// facts that were derived before it.
	a.flush(stats)
	a.sink.Progress(toChaseStats(stats))
}

// flush hands the buffered batch to the sink and recycles the buffers.
func (a *sinkAdapter) flush(stats chase.Stats) {
	if len(a.ends) == 0 {
		return
	}
	a.batch = instance.SplitAt(a.batch[:0], string(a.buf), a.ends)
	a.sink.EmitFacts(a.batch, toChaseStats(stats))
	a.buf, a.ends = a.buf[:0], a.ends[:0]
}

func toChaseStats(s chase.Stats) ChaseStats {
	return ChaseStats{
		InitialFacts:      s.InitialFacts,
		FactsAdded:        s.FactsAdded,
		TriggersApplied:   s.TriggersApplied,
		TriggersNoop:      s.TriggersNoop,
		TriggersSatisfied: s.TriggersSatisfied,
		MaxTermDepth:      int(s.MaxTermDepth),
	}
}
