package service

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chaseterm"
)

// Stats aggregates service-level counters. All methods are safe for
// concurrent use.
type Stats struct {
	start time.Time

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	jobsServed  atomic.Int64
	jobsFailed  atomic.Int64
	inFlight    atomic.Int64

	streams        atomic.Int64
	streamsAborted atomic.Int64
	streamFacts    atomic.Int64

	// The persistent-store tier: hits served from disk, misses that fell
	// through to a computation, and errors (backend failures, undecodable
	// payloads — degraded-mode ErrDegraded returns are not errors, the
	// transition was already counted once).
	storeHits   atomic.Int64
	storeMisses atomic.Int64
	storeErrors atomic.Int64

	// portfolioDecides counts fresh all-instance decides — every one
	// climbs the termination portfolio; memory and store hits are not
	// counted — and portfolioRungs splits them by the rung that decided. The key set is
	// fixed at construction (chaseterm.PortfolioRungNames), so lookups
	// after newStats are read-only and need no lock.
	portfolioDecides atomic.Int64
	portfolioRungs   map[string]*atomic.Int64

	// Queue wait (worker-pool admission + singleflight wait) and
	// execution time are windowed separately: conflating them made a
	// saturated pool indistinguishable from slow analyses.
	latQueue latencyWindow
	latExec  latencyWindow
}

func newStats() *Stats {
	s := &Stats{start: time.Now(), portfolioRungs: make(map[string]*atomic.Int64)}
	for _, rung := range chaseterm.PortfolioRungNames() {
		s.portfolioRungs[rung] = new(atomic.Int64)
	}
	s.latQueue.init(1024)
	s.latExec.init(1024)
	return s
}

// recordPortfolio counts one fresh decide (neither cache nor store
// served it), attributed to the rung that decided it. An exhausted
// portfolio has no deciding rung and only bumps the total.
func (s *Stats) recordPortfolio(decidedBy string) {
	s.portfolioDecides.Add(1)
	if c, ok := s.portfolioRungs[decidedBy]; ok {
		c.Add(1)
	}
}

// Snapshot is the JSON shape served by GET /v1/stats.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	CacheHits     int64   `json:"cacheHits"`
	CacheMisses   int64   `json:"cacheMisses"`
	CacheEntries  int     `json:"cacheEntries"`
	InFlight      int64   `json:"inFlight"`
	JobsServed    int64   `json:"jobsServed"`
	JobsFailed    int64   `json:"jobsFailed"`
	// P50Millis/P99Millis predate the queue/exec split and remain the
	// sum of the two windows' quantiles — the same "whole request"
	// reading they always gave, so existing dashboards keep working.
	P50Millis float64 `json:"p50Millis"`
	P99Millis float64 `json:"p99Millis"`
	// The split windows: time waiting for a worker slot or a
	// deduplicated flight vs. time actually computing.
	QueueP50Millis float64 `json:"queueP50Millis"`
	QueueP99Millis float64 `json:"queueP99Millis"`
	ExecP50Millis  float64 `json:"execP50Millis"`
	ExecP99Millis  float64 `json:"execP99Millis"`

	// Streams counts chase-stream requests that entered the engine;
	// StreamsAborted the subset canceled mid-run (client disconnects);
	// StreamFacts the facts delivered across all stream batches.
	Streams        int64 `json:"streams"`
	StreamsAborted int64 `json:"streamsAborted"`
	StreamFacts    int64 `json:"streamFacts"`

	// The persistent verdict-store tier (all zero when no -store is
	// configured): StoreHits were served from disk, StoreMisses fell
	// through to a computation, StoreErrors count backend failures, and
	// StoreDegraded reports the store is down and the engine is serving
	// memory-only.
	StoreHits     int64 `json:"storeHits"`
	StoreMisses   int64 `json:"storeMisses"`
	StoreErrors   int64 `json:"storeErrors"`
	StoreDegraded bool  `json:"storeDegraded"`

	// PortfolioDecides counts fresh all-instance decides, each of which
	// climbs the termination portfolio (memory and store hits excluded);
	// PortfolioRungs attributes them to the rung that decided — every rung is listed, zeros included, so
	// dashboards see the full ladder.
	PortfolioDecides int64            `json:"portfolioDecides"`
	PortfolioRungs   map[string]int64 `json:"portfolioRungs"`

	Runtime RuntimeStats `json:"runtime"`
}

// RuntimeStats surfaces the Go runtime's memory and GC counters, so an
// operator can watch the allocation rate and collector behaviour of a
// live chased without attaching a profiler. For deeper digging, start the
// server with -pprof and use net/http/pprof.
type RuntimeStats struct {
	// HeapAllocBytes is the live heap (runtime.MemStats.HeapAlloc).
	HeapAllocBytes uint64 `json:"heapAllocBytes"`
	// HeapObjects counts live heap objects.
	HeapObjects uint64 `json:"heapObjects"`
	// TotalAllocBytes is the cumulative bytes allocated since start.
	TotalAllocBytes uint64 `json:"totalAllocBytes"`
	// AllocBytesPerSec is TotalAllocBytes averaged over the uptime — the
	// mean allocation rate the decision engines put on the collector.
	AllocBytesPerSec float64 `json:"allocBytesPerSec"`
	// Mallocs is the cumulative count of heap allocations.
	Mallocs uint64 `json:"mallocs"`
	// NumGC is the number of completed GC cycles.
	NumGC uint32 `json:"numGC"`
	// GCPauseTotalMillis is the cumulative stop-the-world pause time.
	GCPauseTotalMillis float64 `json:"gcPauseTotalMillis"`
	// LastGCPauseMillis is the most recent pause.
	LastGCPauseMillis float64 `json:"lastGCPauseMillis"`
	// GCCPUFraction is the fraction of CPU time spent in GC since start.
	GCCPUFraction float64 `json:"gcCPUFraction"`
	// NumGoroutine is the current goroutine count.
	NumGoroutine int `json:"numGoroutine"`
}

func readRuntimeStats(uptime time.Duration) RuntimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rs := RuntimeStats{
		HeapAllocBytes:     m.HeapAlloc,
		HeapObjects:        m.HeapObjects,
		TotalAllocBytes:    m.TotalAlloc,
		Mallocs:            m.Mallocs,
		NumGC:              m.NumGC,
		GCPauseTotalMillis: float64(m.PauseTotalNs) / 1e6,
		GCCPUFraction:      m.GCCPUFraction,
		NumGoroutine:       runtime.NumGoroutine(),
	}
	if m.NumGC > 0 {
		rs.LastGCPauseMillis = float64(m.PauseNs[(m.NumGC+255)%256]) / 1e6
	}
	if s := uptime.Seconds(); s > 0 {
		rs.AllocBytesPerSec = float64(m.TotalAlloc) / s
	}
	return rs
}

// latencyWindow keeps the most recent N job latencies in a ring and
// reports percentiles over that window. A fixed window keeps the
// quantiles fresh under sustained traffic and bounds memory.
type latencyWindow struct {
	mu   sync.Mutex
	ring []time.Duration
	next int
	full bool
}

func (w *latencyWindow) init(size int) { w.ring = make([]time.Duration, size) }

func (w *latencyWindow) record(d time.Duration) {
	w.mu.Lock()
	w.ring[w.next] = d
	w.next++
	if w.next == len(w.ring) {
		w.next = 0
		w.full = true
	}
	w.mu.Unlock()
}

// quantiles returns the p50 and p99 of the current window (zeros when
// nothing has been recorded yet).
func (w *latencyWindow) quantiles() (p50, p99 time.Duration) {
	w.mu.Lock()
	n := w.next
	if w.full {
		n = len(w.ring)
	}
	sample := make([]time.Duration, n)
	copy(sample, w.ring[:n])
	w.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	// Nearest-rank (ceiling) indexing: the q-quantile is the smallest
	// sample ≥ a q-fraction of the window, i.e. sample[⌈q·n⌉-1]. The
	// previous floor indexing int(q*(n-1)) under-reported the tail badly
	// on small windows — the "p99" of a 2-sample window was its minimum.
	idx := func(q float64) int {
		i := int(math.Ceil(q*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	return sample[idx(0.50)], sample[idx(0.99)]
}

func (s *Stats) observe(queue, exec time.Duration, failed bool) {
	s.jobsServed.Add(1)
	if failed {
		s.jobsFailed.Add(1)
	}
	s.latQueue.record(queue)
	s.latExec.record(exec)
}

// InFlight returns the number of requests currently inside the engine,
// including those waiting for a worker or a deduplicated flight.
func (s *Stats) InFlight() int64 { return s.inFlight.Load() }

// CacheHits returns the number of requests served from the verdict
// cache, counting singleflight-deduplicated waiters as hits.
func (s *Stats) CacheHits() int64 { return s.cacheHits.Load() }

// CacheMisses returns the number of decide requests the in-memory
// verdict cache missed: each was served by the persistent store
// (StoreHits in the snapshot) or by a fresh decision.
func (s *Stats) CacheMisses() int64 { return s.cacheMisses.Load() }

// Streams returns the number of chase-stream requests that entered the
// engine.
func (s *Stats) Streams() int64 { return s.streams.Load() }

// StreamsAborted returns the number of streams whose producing chase
// run was canceled mid-flight — in the served system, a client that
// disconnected before the run finished.
func (s *Stats) StreamsAborted() int64 { return s.streamsAborted.Load() }

// StreamFacts returns the total number of facts delivered across all
// stream batches.
func (s *Stats) StreamFacts() int64 { return s.streamFacts.Load() }

func (s *Stats) snapshot(cacheEntries int, storeDegraded bool) Snapshot {
	q50, q99 := s.latQueue.quantiles()
	x50, x99 := s.latExec.quantiles()
	uptime := time.Since(s.start)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return Snapshot{
		UptimeSeconds:    uptime.Seconds(),
		Runtime:          readRuntimeStats(uptime),
		CacheHits:        s.cacheHits.Load(),
		CacheMisses:      s.cacheMisses.Load(),
		CacheEntries:     cacheEntries,
		InFlight:         s.inFlight.Load(),
		JobsServed:       s.jobsServed.Load(),
		JobsFailed:       s.jobsFailed.Load(),
		P50Millis:        ms(q50 + x50),
		P99Millis:        ms(q99 + x99),
		QueueP50Millis:   ms(q50),
		QueueP99Millis:   ms(q99),
		ExecP50Millis:    ms(x50),
		ExecP99Millis:    ms(x99),
		StoreHits:        s.storeHits.Load(),
		StoreMisses:      s.storeMisses.Load(),
		StoreErrors:      s.storeErrors.Load(),
		StoreDegraded:    storeDegraded,
		Streams:          s.streams.Load(),
		StreamsAborted:   s.streamsAborted.Load(),
		StreamFacts:      s.streamFacts.Load(),
		PortfolioDecides: s.portfolioDecides.Load(),
		PortfolioRungs:   s.portfolioRungSnapshot(),
	}
}

func (s *Stats) portfolioRungSnapshot() map[string]int64 {
	out := make(map[string]int64, len(s.portfolioRungs))
	for rung, c := range s.portfolioRungs {
		out[rung] = c.Load()
	}
	return out
}
