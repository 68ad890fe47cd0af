// Package service is the concurrent termination-analysis engine behind
// cmd/chased: a content-addressed verdict cache with singleflight
// deduplication, a worker-pool executor with per-job timeouts, and the
// HTTP layer that serves the versioned wire contract of package api.
//
// The decision procedures of the paper are expensive by nature (PSPACE-
// complete for linear rules, 2EXPTIME-complete for guarded ones), so the
// engine amortizes them: identical rule sets are recognized by their
// canonical fingerprint (RuleSet.Fingerprint), verdicts are cached, and
// N concurrent identical requests cost a single decision.
//
// The engine speaks api.AnalyzeRequest/api.AnalyzeResponse end-to-end
// (Analyze, AnalyzeBatch, served as POST /v2/analyze and /v2/batch).
// Every all-instance decide climbs the facade's termination portfolio,
// so every decision names its deciding rung; a request's portfolio flag
// only adds the per-rung trace to the response.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"time"

	"chaseterm"
	"chaseterm/api"
	"chaseterm/internal/obs"
	"chaseterm/internal/store"
)

// ErrBadRequest wraps client errors (malformed rules, unknown variant,
// unknown job kind); the HTTP layer maps it to 400 / "bad_request".
var ErrBadRequest = errors.New("bad request")

// ErrUnprocessable wraps analyses that ran but could not finish within
// their search-space budgets (e.g. a shape or node-type cap from the
// request, or the library default, was exceeded). These are a property
// of the submitted instance, not a server fault; the HTTP layer maps
// them to 422 / "unprocessable".
var ErrUnprocessable = errors.New("analysis failed")

// maxRequestBudget caps every client-supplied search budget. Workers
// stay occupied until a job's computation winds down, so an absurd
// budget (say 2e9 facts) would otherwise let one request pin a worker
// for hours; the cap keeps "budget-bounded" meaning "bounded on a
// human timescale". It sits well above every library default (1e6
// facts/triggers/shapes, 250k node types).
const maxRequestBudget = 10_000_000

// Options configure an Engine; zero values select the defaults noted on
// each field.
type Options struct {
	// Workers bounds concurrently running analyses (default GOMAXPROCS).
	Workers int
	// CacheSize bounds the verdict cache entry count (default 1024).
	CacheSize int
	// JobTimeout bounds one job end to end, queue wait included
	// (default 30s).
	JobTimeout time.Duration
	// MaxBatch bounds jobs per Batch call (default 256).
	MaxBatch int
	// ChaseWorkers is ignored: ROADMAP item 2's benchmark-only change deletes it with chase.parallel_ratio.
	ChaseWorkers int
	// DecideFunc overrides the all-instance decision procedure — for
	// tests and instrumentation wrappers. Nil means the library decider
	// (chaseterm.Analyzer, which climbs the termination portfolio). Every
	// all-instance decide, portfolio requests included, runs through it;
	// the verdict's DecidedBy and Rungs are what the response reports as
	// decidedBy and rungs. Implementations must honor the context: it
	// carries the job's deadline, and ignoring it keeps a worker slot
	// pinned after the client's request has already failed.
	DecideFunc func(context.Context, *chaseterm.RuleSet, chaseterm.Variant, chaseterm.DecideOptions) (*chaseterm.Verdict, error)

	// Store, when set, persists decide verdicts across process restarts
	// as a write-through/read-miss layer under the in-memory cache: a
	// memory miss probes the store before computing, and a fresh verdict
	// is written through after. The engine never fails a request over the
	// store — errors are counted, the request recomputes. The caller owns
	// the store's lifecycle (the engine does not close it).
	Store store.VerdictStore

	// Logger, when set, receives one structured completion record per
	// job: request ID, kind, fingerprint, verdict or outcome, cache
	// result, queue/exec durations, and the error code on failure. Nil
	// disables request logging (the default — library users opt in,
	// cmd/chased always sets one).
	Logger *slog.Logger
	// SlowRequest raises the completion record of any request whose
	// total time reaches the threshold to WARN with slow=true; zero
	// disables the check.
	SlowRequest time.Duration
}

// Engine runs analysis jobs concurrently with caching and admission
// control. Create with New, release with Close.
type Engine struct {
	opts    Options
	cache   *verdictCache
	pool    *workerPool
	stats   *Stats
	metrics *metrics
	store   store.VerdictStore
	decide  func(context.Context, *chaseterm.RuleSet, chaseterm.Variant, chaseterm.DecideOptions) (*chaseterm.Verdict, error)

	facade chaseterm.Analyzer
}

// New builds an Engine and starts its workers.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = 1024
	}
	if opts.JobTimeout <= 0 {
		opts.JobTimeout = 30 * time.Second
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 256
	}
	e := &Engine{
		opts:  opts,
		cache: newVerdictCache(opts.CacheSize),
		pool:  newWorkerPool(opts.Workers),
		stats: newStats(),
		store: opts.Store,
	}
	e.metrics = newMetrics(e)
	e.decide = opts.DecideFunc
	if e.decide == nil {
		e.decide = func(ctx context.Context, rules *chaseterm.RuleSet, v chaseterm.Variant, opt chaseterm.DecideOptions) (*chaseterm.Verdict, error) {
			rep, err := e.facade.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules,
				chaseterm.WithVariant(v), chaseterm.WithDecideBudgets(opt)))
			if err != nil {
				return nil, err
			}
			return rep.Verdict, nil
		}
	}
	return e
}

// Close stops the worker pool; in-flight jobs finish first.
func (e *Engine) Close() { e.pool.Close() }

// Config returns the effective options after defaulting — what the
// engine actually runs with, for logging and diagnostics.
func (e *Engine) Config() Options { return e.opts }

// Stats returns the live counters (also served as GET /v1/stats).
func (e *Engine) Stats() *Stats { return e.stats }

// StatsSnapshot captures the counters for serialization.
func (e *Engine) StatsSnapshot() Snapshot { return e.stats.snapshot(e.cache.Len(), e.storeDegraded()) }

// beginRequest starts the per-request instrumentation: it ensures the
// context carries an obs.Trace (creating a pooled one when the caller —
// a batch fan-out, a direct library call — did not), and
// returns the trace plus whether this call owns it and must recycle it.
func (e *Engine) beginRequest(ctx context.Context) (context.Context, *obs.Trace, bool) {
	tr := obs.FromContext(ctx)
	if tr != nil {
		return ctx, tr, false
	}
	tr = obs.GetTrace()
	return obs.NewContext(ctx, tr), tr, true
}

// endRequest finishes the per-request instrumentation: it splits the
// wall time into queue wait (pool admission + singleflight wait) and
// execution, and feeds both the /v1/stats windows and the endpoint's
// Prometheus histograms.
func (e *Engine) endRequest(endpoint string, tr *obs.Trace, total time.Duration, failed bool) (queue, exec time.Duration) {
	queue = tr.Get(obs.SpanQueueWait) + tr.Get(obs.SpanSingleflightWait)
	exec = total - queue
	if exec < 0 {
		exec = 0
	}
	e.stats.observe(queue, exec, failed)
	e.metrics.observeRequest(endpoint, queue, exec)
	return queue, exec
}

// Analyze runs one analysis job to completion and returns its response
// in the v2 wire model. Client mistakes are reported as ErrBadRequest
// wrappers; an expired per-job timeout or caller context surfaces as
// the context error.
func (e *Engine) Analyze(ctx context.Context, req api.AnalyzeRequest) (*api.AnalyzeResponse, error) {
	ctx, tr, owned := e.beginRequest(ctx)
	e.stats.inFlight.Add(1)
	start := time.Now()
	resp, err := e.dispatch(ctx, req)
	e.stats.inFlight.Add(-1)
	total := time.Since(start)
	queue, exec := e.endRequest(endpointAnalyze, tr, total, err != nil)
	if resp != nil {
		// respFromReport pre-populates resp.Trace with the engine
		// counters of a chase run; fold them into the fleet totals, then
		// either complete the wire trace or drop it when not requested.
		if resp.Trace != nil && resp.Trace.Engine != nil {
			en := resp.Trace.Engine
			e.metrics.addEngine(en.TriggersApplied, en.TriggersNoop, en.TriggersSatisfied, en.FactsAdded)
		}
		if req.Trace {
			completeTrace(ctx, resp, tr, total)
		} else {
			resp.Trace = nil
		}
	}
	e.logRequest(ctx, endpointAnalyze, req.Kind, resp, err, queue, exec, total)
	if owned && err == nil {
		// On an error path the underlying job may still be winding down
		// on a worker (timeouts, cancellations) with the context — and
		// the trace — in hand; recycling it then would let a late span
		// land on an unrelated request. Let the GC have those.
		obs.PutTrace(tr)
	}
	return resp, err
}

// completeTrace turns the accumulated spans into the wire-level trace
// of a traced response. WallMillis covers the whole server-side life of
// the request: the decode span is recorded by the HTTP layer before the
// engine's clock starts, so it is added on top of total.
func completeTrace(ctx context.Context, resp *api.AnalyzeResponse, tr *obs.Trace, total time.Duration) {
	wire := resp.Trace
	if wire == nil {
		wire = &api.Trace{}
		resp.Trace = wire
	}
	wire.RequestID = obs.RequestIDFromContext(ctx)
	wire.WallMillis = millis(total + tr.Get(obs.SpanDecode))
	tr.Each(func(k obs.SpanKind, d time.Duration) {
		wire.Spans = append(wire.Spans, api.Span{Name: k.String(), Millis: millis(d)})
	})
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// logRequest emits the one structured completion record of a job.
func (e *Engine) logRequest(ctx context.Context, endpoint string, kind api.Kind, resp *api.AnalyzeResponse, err error, queue, exec, total time.Duration) {
	log := e.opts.Logger
	if log == nil {
		return
	}
	slow := e.opts.SlowRequest > 0 && total >= e.opts.SlowRequest
	attrs := make([]slog.Attr, 0, 10)
	attrs = append(attrs,
		slog.String("requestId", obs.RequestIDFromContext(ctx)),
		slog.String("endpoint", endpoint),
		slog.String("kind", string(kind)),
		slog.Float64("queueMillis", millis(queue)),
		slog.Float64("execMillis", millis(exec)),
	)
	if resp != nil {
		if resp.Fingerprint != "" {
			attrs = append(attrs, slog.String("fingerprint", resp.Fingerprint))
		}
		if resp.Decision != nil {
			attrs = append(attrs, slog.String("verdict", resp.Decision.Terminates))
		}
		if resp.Chase != nil {
			attrs = append(attrs, slog.String("outcome", resp.Chase.Outcome))
		}
		if kind == api.KindDecide {
			attrs = append(attrs, slog.Bool("cached", resp.Cached))
		}
	}
	level := slog.LevelInfo
	if slow {
		level = slog.LevelWarn
		attrs = append(attrs, slog.Bool("slow", true))
	}
	if err != nil {
		level = slog.LevelWarn
		attrs = append(attrs, slog.String("code", string(toAPIError(err).Code)), slog.String("error", err.Error()))
	}
	log.LogAttrs(ctx, level, "request", attrs...)
}

func (e *Engine) dispatch(ctx context.Context, req api.AnalyzeRequest) (*api.AnalyzeResponse, error) {
	if !req.Kind.Valid() {
		return nil, fmt.Errorf("%w: unknown job kind %q", ErrBadRequest, req.Kind)
	}
	rules, err := chaseterm.ParseRules(req.Rules)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := checkBudgets(req); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, e.opts.JobTimeout)
	defer cancel()
	var resp *api.AnalyzeResponse
	switch req.Kind {
	case api.KindClassify, api.KindAcyclicity:
		// Classification and the positional criteria are cheap syntactic
		// passes over the already-parsed rules — answered inline, far too
		// light to be worth a worker slot or the risk of queueing behind
		// a heavy decision.
		resp, err = e.doInline(ctx, req, rules)
	case api.KindDecide:
		resp, err = e.doDecide(ctx, req, rules)
	case api.KindChase:
		resp, err = e.doChase(ctx, req, rules)
	}
	if err != nil {
		return nil, err
	}
	// The cached decide path is the one place the acyclicity report
	// cannot ride the primary facade call (the verdict may come from the
	// cache without any facade call at all); attach it here.
	if req.WithAcyclicity && resp.Acyclicity == nil {
		rep, err := e.facade.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeAcyclicity, rules))
		if err != nil {
			return nil, wrapExecErr(err)
		}
		resp.Acyclicity = apiAcyclicity(rep.Acyclicity)
	}
	return resp, nil
}

// baseResponse fills the sections every response carries: the kind echo
// and the classification block.
func baseResponse(kind api.Kind, rules *chaseterm.RuleSet) *api.AnalyzeResponse {
	return &api.AnalyzeResponse{
		Kind:        kind,
		Fingerprint: rules.Fingerprint(),
		Class:       rules.Classify().String(),
		NumRules:    intp(rules.NumRules()),
		MaxArity:    intp(rules.MaxArity()),
		Predicates:  rules.Predicates(),
	}
}

// respFromReport converts a full facade report — classification block
// plus whatever sections the request produced — to the wire shape.
func respFromReport(kind api.Kind, rep *chaseterm.Report, includeFacts bool) *api.AnalyzeResponse {
	resp := &api.AnalyzeResponse{
		Kind:        kind,
		Fingerprint: rep.Fingerprint,
		Class:       rep.Class.String(),
		NumRules:    intp(rep.NumRules),
		MaxArity:    intp(rep.MaxArity),
		Predicates:  rep.Predicates,
	}
	if rep.Verdict != nil {
		resp.Decision = apiDecision(rep.Verdict)
	}
	if rep.Chase != nil {
		resp.Chase = apiChaseRun(rep.Chase, includeFacts)
	}
	if rep.Acyclicity != nil {
		resp.Acyclicity = apiAcyclicity(rep.Acyclicity)
	}
	if rep.Engine != nil {
		// Provisional: Analyze folds these counters into the Prometheus
		// totals and then either completes the trace (trace requested)
		// or strips it from the response.
		resp.Trace = &api.Trace{Engine: apiEngineStats(rep.Engine)}
	}
	return resp
}

// apiEngineStats converts the facade's engine counter set to its wire
// form.
func apiEngineStats(s *chaseterm.EngineStats) *api.EngineStats {
	return &api.EngineStats{
		InitialFacts:      s.InitialFacts,
		FactsAdded:        s.FactsAdded,
		TriggersApplied:   s.TriggersApplied,
		TriggersNoop:      s.TriggersNoop,
		TriggersSatisfied: s.TriggersSatisfied,
		TriggersEnqueued:  s.TriggersEnqueued,
		MaxTermDepth:      s.MaxTermDepth,
	}
}

func intp(v int) *int { return &v }

func (e *Engine) doInline(ctx context.Context, req api.AnalyzeRequest, rules *chaseterm.RuleSet) (*api.AnalyzeResponse, error) {
	kind := chaseterm.AnalyzeClassify
	if req.Kind == api.KindAcyclicity {
		kind = chaseterm.AnalyzeAcyclicity
	}
	var opts []chaseterm.RequestOption
	if req.WithAcyclicity {
		opts = append(opts, chaseterm.WithAcyclicity())
	}
	rep, err := e.facade.Analyze(ctx, chaseterm.NewRequest(kind, rules, opts...))
	if err != nil {
		return nil, wrapExecErr(err)
	}
	return respFromReport(req.Kind, rep, false), nil
}

func (e *Engine) doDecide(ctx context.Context, req api.AnalyzeRequest, rules *chaseterm.RuleSet) (*api.AnalyzeResponse, error) {
	variant, err := parseVariant(req.Variant)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(req.Database) != "" {
		return e.doDecideOnDatabase(ctx, req, rules, variant)
	}
	// Normalize budgets before keying: an explicitly spelled-out
	// default must hit the same cache entry as an omitted one.
	shapes, nodeTypes := req.MaxShapes, req.MaxNodeTypes
	if shapes == chaseterm.DefaultMaxShapes {
		shapes = 0
	}
	if nodeTypes == chaseterm.DefaultMaxNodeTypes {
		nodeTypes = 0
	}
	resp := baseResponse(api.KindDecide, rules)
	key := fmt.Sprintf("dv2|%s|%s|%d|%d", resp.Fingerprint, variantKeys[variant], shapes, nodeTypes)
	// stored marks a leader served by the persistent store: that verdict
	// was computed by a past process (or this one, pre-eviction), so it
	// counts as cached even on a memory-cache miss. Only the leader runs
	// the flight function, so the flag is never shared.
	stored := false
	val, hit, err := e.cache.Do(ctx, key, func() (any, error) {
		// The store sits under the memory cache as a read-miss layer.
		// Probing it inside the flight keeps the singleflight guarantee:
		// N concurrent misses cost one store read, not N.
		if d, ok := e.storeGet(key); ok {
			stored = true
			return d, nil
		}
		// The flight is shared: deduplicated waiters ride on this one
		// computation, so it must not die with the leader's request.
		// Detach from the caller's cancellation and give the flight its
		// own full JobTimeout; each waiter still honors its own context
		// while waiting.
		fctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), e.opts.JobTimeout)
		defer cancel()
		fresh, err := e.pool.Do(fctx, func(ctx context.Context) (any, error) {
			v, err := e.decide(ctx, rules, variant, chaseterm.DecideOptions{
				MaxShapes:    shapes,
				MaxNodeTypes: nodeTypes,
			})
			if err != nil {
				return nil, err
			}
			return apiDecision(v), nil
		})
		if err != nil {
			return nil, err
		}
		d := fresh.(*api.Decision)
		e.stats.recordPortfolio(d.DecidedBy)
		e.storePut(key, d)
		return d, nil
	})
	if err != nil {
		return nil, wrapExecErr(err)
	}
	if hit {
		e.stats.cacheHits.Add(1)
	} else {
		e.stats.cacheMisses.Add(1)
	}
	resp.Cached = hit || stored
	// Shallow-copied so response post-processing can never scribble on
	// the cached value. Every decision names its deciding rung; the rung
	// trace is returned only on request.
	d := *val.(*api.Decision)
	if !req.Portfolio {
		d.Rungs = nil
	}
	resp.Decision = &d
	return resp, nil
}

// variantKeys spells each variant in an all-instance decide's cache and
// store key, "dv2|fingerprint|variant|maxShapes|maxNodeTypes", whose
// cached value is an *api.Decision carrying its provenance (decidedBy,
// rungs). Older binaries keyed their records "decide|…" and stored some
// of them without provenance; the "dv2" prefix keeps those records from
// ever being served. A key is 75 bytes with the default budgets; the
// store's in-memory index holds a 64-bit hash of it.
var variantKeys = [...]string{chaseterm.Oblivious: "o", chaseterm.SemiOblivious: "so", chaseterm.Restricted: "r"}

// doDecideOnDatabase answers the fixed-database decision problem. The
// verdict depends on the database, which is not part of the verdict
// cache's content address, so these decisions run uncached (still
// pool-bounded and deadline-bounded).
func (e *Engine) doDecideOnDatabase(ctx context.Context, req api.AnalyzeRequest, rules *chaseterm.RuleSet, variant chaseterm.Variant) (*api.AnalyzeResponse, error) {
	db, err := parseDatabase(req.Database, rules)
	if err != nil {
		return nil, err
	}
	opts := []chaseterm.RequestOption{
		chaseterm.WithVariant(variant),
		chaseterm.WithDatabase(db),
		chaseterm.WithDecideBudgets(chaseterm.DecideOptions{
			MaxShapes:    req.MaxShapes,
			MaxNodeTypes: req.MaxNodeTypes,
		}),
	}
	if req.WithAcyclicity {
		opts = append(opts, chaseterm.WithAcyclicity())
	}
	val, err := e.pool.Do(ctx, func(ctx context.Context) (any, error) {
		return e.facade.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules, opts...))
	})
	if err != nil {
		return nil, wrapExecErr(err)
	}
	return respFromReport(api.KindDecide, val.(*chaseterm.Report), false), nil
}

// chaseRequestOptions translates the chase-relevant wire fields —
// variant, budgets, database — into facade options. Shared by the
// one-shot (doChase) and streaming (ChaseStream) paths so the two
// translations cannot drift.
func chaseRequestOptions(req api.AnalyzeRequest, rules *chaseterm.RuleSet) ([]chaseterm.RequestOption, error) {
	variant, err := parseVariant(req.Variant)
	if err != nil {
		return nil, err
	}
	opts := []chaseterm.RequestOption{
		chaseterm.WithVariant(variant),
		chaseterm.WithChaseBudgets(chaseterm.ChaseOptions{
			MaxTriggers: req.MaxTriggers,
			MaxFacts:    req.MaxFacts,
			MaxDepth:    req.MaxDepth,
		}),
	}
	if strings.TrimSpace(req.Database) != "" {
		db, err := parseDatabase(req.Database, rules)
		if err != nil {
			return nil, err
		}
		opts = append(opts, chaseterm.WithDatabase(db))
	}
	return opts, nil
}

// parseDatabase parses a request's database and checks it against the
// rules' arities; either failure is the client's.
func parseDatabase(src string, rules *chaseterm.RuleSet) (*chaseterm.Database, error) {
	db, err := chaseterm.ParseDatabase(src)
	if err == nil {
		err = db.CheckArities(rules)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return db, nil
}

func (e *Engine) doChase(ctx context.Context, req api.AnalyzeRequest, rules *chaseterm.RuleSet) (*api.AnalyzeResponse, error) {
	opts, err := chaseRequestOptions(req, rules)
	if err != nil {
		return nil, err
	}
	if req.ReturnFacts {
		// Rendering millions of facts is real work; WithFacts makes the
		// facade do it inside the worker slot so it counts against
		// admission control.
		opts = append(opts, chaseterm.WithFacts())
	}
	if req.WithAcyclicity {
		opts = append(opts, chaseterm.WithAcyclicity())
	}
	val, err := e.pool.Do(ctx, func(ctx context.Context) (any, error) {
		return e.facade.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeChase, rules, opts...))
	})
	if err != nil {
		return nil, wrapExecErr(err)
	}
	return respFromReport(api.KindChase, val.(*chaseterm.Report), req.ReturnFacts), nil
}

// checkBatchSize enforces the batch-level admission rules.
func (e *Engine) checkBatchSize(n int) error {
	if n == 0 {
		return fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	if n > e.opts.MaxBatch {
		return fmt.Errorf("%w: batch of %d exceeds the limit of %d", ErrBadRequest, n, e.opts.MaxBatch)
	}
	return nil
}

// fanOut runs f(0..n-1) concurrently and waits for all of them; the
// worker pool inside each job is what actually bounds parallelism.
func fanOut(n int, f func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// AnalyzeBatch runs the jobs across the worker pool and returns
// responses in input order. Per-job failures are reported inline via
// AnalyzeResponse.Error; the call itself fails only for client mistakes
// at the batch level.
func (e *Engine) AnalyzeBatch(ctx context.Context, reqs []api.AnalyzeRequest) ([]api.AnalyzeResponse, error) {
	if err := e.checkBatchSize(len(reqs)); err != nil {
		return nil, err
	}
	out := make([]api.AnalyzeResponse, len(reqs))
	fanOut(len(reqs), func(i int) {
		resp, err := e.Analyze(ctx, reqs[i])
		if err != nil {
			out[i] = api.AnalyzeResponse{Kind: reqs[i].Kind, Error: toAPIError(err)}
			return
		}
		out[i] = *resp
	})
	return out, nil
}

// apiDecision converts a library verdict, provenance included, to its
// wire form.
func apiDecision(v *chaseterm.Verdict) *api.Decision {
	d := &api.Decision{
		Terminates:  v.Terminates.String(),
		Class:       v.Class.String(),
		Method:      v.Method,
		Witness:     v.Witness,
		SearchSpace: v.SearchSpace,
		DecidedBy:   v.DecidedBy,
	}
	for _, r := range v.Rungs {
		d.Rungs = append(d.Rungs, api.Rung{Name: r.Rung, Verdict: r.Verdict, Millis: millis(r.Elapsed)})
	}
	return d
}

// apiChaseRun converts a chase result to its wire form.
func apiChaseRun(res *chaseterm.ChaseResult, includeFacts bool) *api.ChaseRun {
	out := &api.ChaseRun{
		Outcome: res.Outcome.String(),
		Stats:   *apiChaseStats(res.Stats),
	}
	if includeFacts {
		out.Facts = res.Facts()
	}
	return out
}

// apiChaseStats converts run statistics to their wire form.
func apiChaseStats(s chaseterm.ChaseStats) *api.ChaseStats {
	return &api.ChaseStats{
		InitialFacts:      s.InitialFacts,
		FactsAdded:        s.FactsAdded,
		TriggersApplied:   s.TriggersApplied,
		TriggersNoop:      s.TriggersNoop,
		TriggersSatisfied: s.TriggersSatisfied,
		MaxTermDepth:      s.MaxTermDepth,
	}
}

// apiAcyclicity converts an acyclicity report to its wire form.
func apiAcyclicity(rep *chaseterm.AcyclicityReport) *api.Acyclicity {
	return &api.Acyclicity{
		RichlyAcyclic:  rep.RichlyAcyclic,
		WeaklyAcyclic:  rep.WeaklyAcyclic,
		JointlyAcyclic: rep.JointlyAcyclic,
		RAWitness:      rep.RAWitness,
		WAWitness:      rep.WAWitness,
		JAWitness:      rep.JAWitness,
	}
}

// toAPIError classifies an engine error into its wire form: a stable
// machine-readable code plus the error text.
func toAPIError(err error) *api.Error {
	code := api.CodeInternal
	switch {
	case errors.Is(err, ErrBadRequest):
		code = api.CodeBadRequest
	case errors.Is(err, ErrUnprocessable):
		code = api.CodeUnprocessable
	case errors.Is(err, context.DeadlineExceeded):
		code = api.CodeTimeout
	case errors.Is(err, context.Canceled):
		code = api.CodeCanceled
	case errors.Is(err, ErrClosed):
		code = api.CodeUnavailable
	case errors.Is(err, ErrPanic):
		code = api.CodeInternal
	}
	return &api.Error{Code: code, Message: err.Error()}
}

// checkBudgets rejects out-of-range search budgets up front (zero means
// the library default and is always fine).
func checkBudgets(req api.AnalyzeRequest) error {
	budgets := []struct {
		name string
		val  int
	}{
		{"maxShapes", req.MaxShapes},
		{"maxNodeTypes", req.MaxNodeTypes},
		{"maxTriggers", req.MaxTriggers},
		{"maxFacts", req.MaxFacts},
		{"maxDepth", req.MaxDepth},
	}
	for _, b := range budgets {
		if b.val < 0 || b.val > maxRequestBudget {
			return fmt.Errorf("%w: %s must be between 0 and %d, got %d",
				ErrBadRequest, b.name, maxRequestBudget, b.val)
		}
	}
	return nil
}

// wrapExecErr classifies an execution failure: transport conditions
// (timeouts, shutdown), request mistakes, and recovered panics pass
// through; everything else came out of an analysis that ran and gave
// up, which is the instance's fault, not the server's.
func wrapExecErr(err error) error {
	if err == nil ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrBadRequest) ||
		errors.Is(err, ErrPanic) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrUnprocessable, err)
}

func parseVariant(s string) (chaseterm.Variant, error) {
	if s == "" {
		return chaseterm.SemiOblivious, nil
	}
	v, err := chaseterm.ParseVariant(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return v, nil
}
