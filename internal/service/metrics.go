package service

import (
	"sync/atomic"
	"time"

	"chaseterm"
	"chaseterm/internal/obs"
)

// Endpoint labels for the per-endpoint latency histograms.
const (
	endpointAnalyze = "analyze"
	endpointStream  = "stream"
)

// metrics is the Prometheus-facing view of one Engine: a registry whose
// counter and gauge series sample the Stats atomics the engine already
// maintains (no double bookkeeping), plus the few counters and
// histograms that exist only for scraping. Everything on the update
// path is a handful of atomic adds — no locks, no allocations — so
// instrumented requests keep the engine's zero-alloc guarantees.
type metrics struct {
	reg *obs.Registry

	// Engine counters, aggregated once per finished chase run from the
	// facade report (never per trigger: the steady-state trigger loop
	// stays untouched and allocation-free).
	triggersApplied   atomic.Int64
	triggersNoop      atomic.Int64
	triggersSatisfied atomic.Int64
	factsDerived      atomic.Int64

	// streamEvents counts every NDJSON event emitted across all chase
	// streams (facts, progress, and terminal events).
	streamEvents atomic.Int64

	// Per-endpoint latency histograms, split the same way as the
	// /v1/stats windows: queue wait vs. execution.
	queueAnalyze *obs.Histogram
	execAnalyze  *obs.Histogram
	queueStream  *obs.Histogram
	execStream   *obs.Histogram
}

// newMetrics builds the registry over a live engine. Series are named
// chased_* after the binary that serves them.
func newMetrics(e *Engine) *metrics {
	m := &metrics{reg: obs.NewRegistry()}
	r := m.reg
	s := e.stats

	counter := func(name, help string, a *atomic.Int64) {
		r.Counter(name, help, a.Load)
	}
	counter("chased_cache_hits_total", "Requests served from the verdict cache (stored entries and deduplicated flights).", &s.cacheHits)
	counter("chased_cache_misses_total", "Decide requests the in-memory verdict cache missed (served by the persistent store or a fresh decision).", &s.cacheMisses)
	counter("chased_jobs_total", "Analysis jobs served, failed ones included.", &s.jobsServed)
	counter("chased_jobs_failed_total", "Analysis jobs that returned an error.", &s.jobsFailed)
	counter("chased_streams_total", "Chase-stream requests that entered the engine.", &s.streams)
	counter("chased_streams_aborted_total", "Chase streams canceled mid-run (client disconnects).", &s.streamsAborted)
	counter("chased_stream_facts_total", "Facts delivered across all stream batches.", &s.streamFacts)
	counter("chased_stream_events_total", "NDJSON events emitted across all chase streams.", &m.streamEvents)
	counter("chased_triggers_applied_total", "Chase triggers applied across all runs.", &m.triggersApplied)
	counter("chased_triggers_noop_total", "Chase triggers that produced no new fact across all runs.", &m.triggersNoop)
	counter("chased_triggers_satisfied_total", "Chase triggers skipped as already satisfied across all runs.", &m.triggersSatisfied)
	counter("chased_facts_derived_total", "Facts derived by the chase engine across all runs.", &m.factsDerived)
	counter("chased_store_hits_total", "Decide verdicts served from the persistent store.", &s.storeHits)
	counter("chased_store_misses_total", "Persistent-store probes that fell through to a computation.", &s.storeMisses)
	counter("chased_store_errors_total", "Persistent-store failures (degraded-mode short-circuits excluded).", &s.storeErrors)
	counter("chased_portfolio_decides_total", "Fresh all-instance decides, each climbing the termination portfolio (cache and store hits excluded).", &s.portfolioDecides)
	for _, rung := range chaseterm.PortfolioRungNames() {
		r.LabeledCounter("chased_portfolio_rung_total",
			"Portfolio decisions by the rung that decided.",
			`rung="`+rung+`"`, s.portfolioRungs[rung].Load)
	}

	r.Gauge("chased_uptime_seconds", "Seconds since the engine started.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	r.Gauge("chased_in_flight", "Requests currently inside the engine.", func() float64 {
		return float64(s.inFlight.Load())
	})
	r.Gauge("chased_pool_queue_depth", "Callers blocked waiting for a worker slot.", func() float64 {
		return float64(e.pool.queued.Load())
	})
	r.Gauge("chased_cache_entries", "Entries stored in the verdict cache.", func() float64 {
		return float64(e.cache.Len())
	})
	r.Gauge("chased_store_degraded", "1 while the persistent store is down and the engine serves memory-only, else 0.", func() float64 {
		if e.storeDegraded() {
			return 1
		}
		return 0
	})

	const queueHelp = "Time requests spent waiting for a worker slot or a deduplicated flight, by endpoint."
	const execHelp = "Time requests spent executing (decode, cache probe, analysis, render), by endpoint."
	m.queueAnalyze = r.Histogram("chased_request_queue_seconds", queueHelp, `endpoint="analyze"`, nil)
	m.queueStream = r.Histogram("chased_request_queue_seconds", queueHelp, `endpoint="stream"`, nil)
	m.execAnalyze = r.Histogram("chased_request_exec_seconds", execHelp, `endpoint="analyze"`, nil)
	m.execStream = r.Histogram("chased_request_exec_seconds", execHelp, `endpoint="stream"`, nil)
	return m
}

// observeRequest records one finished request on the endpoint's
// latency histograms.
func (m *metrics) observeRequest(endpoint string, queue, exec time.Duration) {
	if endpoint == endpointStream {
		m.queueStream.Observe(queue)
		m.execStream.Observe(exec)
		return
	}
	m.queueAnalyze.Observe(queue)
	m.execAnalyze.Observe(exec)
}

// addEngine folds one finished chase run's counters into the fleet
// totals.
func (m *metrics) addEngine(triggersApplied, triggersNoop, triggersSatisfied, factsAdded int) {
	m.triggersApplied.Add(int64(triggersApplied))
	m.triggersNoop.Add(int64(triggersNoop))
	m.triggersSatisfied.Add(int64(triggersSatisfied))
	m.factsDerived.Add(int64(factsAdded))
}
