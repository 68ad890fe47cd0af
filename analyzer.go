package chaseterm

import (
	"context"
	"fmt"
	"time"

	"chaseterm/internal/obs"
)

// AnalysisKind selects what an Analyzer computes for a Request.
type AnalysisKind int

const (
	// AnalyzeClassify reports the syntactic class and schema of the rule
	// set (Report.Class, NumRules, MaxArity, Predicates).
	AnalyzeClassify AnalysisKind = iota
	// AnalyzeDecide decides chase termination (Report.Verdict): for every
	// database when no database is attached, by climbing the termination
	// portfolio's ladder (cheap sound criteria first, the paper's exact
	// procedures last; the verdict names the deciding rung), or for the
	// attached database only (WithDatabase — the fixed-database variant
	// of the problem).
	AnalyzeDecide
	// AnalyzeChase runs a bounded chase (Report.Chase) over the attached
	// database, or over the critical instance I*(Σ) when none is attached.
	AnalyzeChase
	// AnalyzeAcyclicity evaluates the positional acyclicity criteria
	// (Report.Acyclicity).
	AnalyzeAcyclicity
)

func (k AnalysisKind) String() string {
	switch k {
	case AnalyzeClassify:
		return "classify"
	case AnalyzeDecide:
		return "decide"
	case AnalyzeChase:
		return "chase"
	case AnalyzeAcyclicity:
		return "acyclicity"
	default:
		return fmt.Sprintf("AnalysisKind(%d)", int(k))
	}
}

// ParseAnalysisKind accepts the lower-case kind names used on the wire:
// "classify", "decide", "chase", "acyclicity".
func ParseAnalysisKind(s string) (AnalysisKind, error) {
	switch s {
	case "classify":
		return AnalyzeClassify, nil
	case "decide":
		return AnalyzeDecide, nil
	case "chase":
		return AnalyzeChase, nil
	case "acyclicity":
		return AnalyzeAcyclicity, nil
	default:
		return 0, fmt.Errorf("chaseterm: unknown analysis kind %q", s)
	}
}

// Request is one analysis job for an Analyzer: a kind, a rule set, and
// options. Build it with NewRequest; the zero value is not valid.
//
// The option set composes across kinds: WithDatabase turns AnalyzeDecide
// into the fixed-database decision and seeds AnalyzeChase (instead of
// the critical instance); WithAcyclicity attaches the positional
// acyclicity report to any request; budgets apply to the kinds that run
// the corresponding procedure and are ignored otherwise.
type Request struct {
	// Kind selects the analysis.
	Kind AnalysisKind
	// Rules is the rule set under analysis; required.
	Rules *RuleSet

	// variant is meaningful only when variantSet; the split keeps the
	// SemiOblivious default honest even for struct-literal Requests that
	// bypass NewRequest (the Variant zero value is Oblivious, which is a
	// genuinely different decision problem).
	variant    Variant
	variantSet bool
	// databaseSet distinguishes WithDatabase(nil) — a caller bug that
	// must fail loudly — from no WithDatabase at all.
	database       *Database
	databaseSet    bool
	decideOpts     DecideOptions
	chaseOpts      ChaseOptions
	renderFacts    bool
	withAcyclicity bool
	sink           ChaseSink
}

// Variant returns the chase variant the request targets (default
// SemiOblivious, the variant the paper's exact procedures are stated
// for).
func (r Request) Variant() Variant {
	if !r.variantSet {
		return SemiOblivious
	}
	return r.variant
}

// Database returns the attached database, or nil.
func (r Request) Database() *Database { return r.database }

// RequestOption configures a Request; see NewRequest.
type RequestOption func(*Request)

// WithVariant selects the chase variant (default SemiOblivious).
func WithVariant(v Variant) RequestOption {
	return func(r *Request) {
		r.variant = v
		r.variantSet = true
	}
}

// WithDatabase attaches a database: AnalyzeDecide then decides
// termination of the chase of this database only (the fixed-database
// problem), and AnalyzeChase chases it instead of the critical
// instance.
func WithDatabase(db *Database) RequestOption {
	return func(r *Request) {
		r.database = db
		r.databaseSet = true
	}
}

// WithDecideBudgets bounds the decision procedures of AnalyzeDecide
// (zero fields mean the library defaults).
func WithDecideBudgets(opt DecideOptions) RequestOption {
	return func(r *Request) { r.decideOpts = opt }
}

// WithChaseBudgets bounds the chase run of AnalyzeChase (zero fields
// mean the library defaults).
func WithChaseBudgets(opt ChaseOptions) RequestOption {
	return func(r *Request) { r.chaseOpts = opt }
}

// WithFacts renders the final instance eagerly inside Analyze, so the
// report's chase result has its facts materialized by the time the call
// returns (they are rendered lazily on first use otherwise). Callers
// that account for rendering cost — like the analysis service, which
// charges it against a worker slot — opt in with this.
func WithFacts() RequestOption {
	return func(r *Request) { r.renderFacts = true }
}

// WithChaseSink streams the facts an AnalyzeChase run derives through
// sink, in batches, while the run is in progress — see ChaseSink for
// the delivery contract. Other kinds ignore the sink. The final Report
// still carries the complete ChaseResult; combine with a bounded
// budget or a cancelable context to stop a diverging run.
func WithChaseSink(sink ChaseSink) RequestOption {
	return func(r *Request) { r.sink = sink }
}

// WithAcyclicity attaches the positional acyclicity report
// (Report.Acyclicity) to the request, whatever its kind — e.g. one
// AnalyzeDecide request can carry both the exact verdict and the
// sufficient-condition ladder.
func WithAcyclicity() RequestOption {
	return func(r *Request) { r.withAcyclicity = true }
}

// NewRequest builds an analysis request for the rule set.
func NewRequest(kind AnalysisKind, rules *RuleSet, opts ...RequestOption) Request {
	r := Request{Kind: kind, Rules: rules}
	for _, o := range opts {
		o(&r)
	}
	return r
}

// Timings breaks one Analyze call's wall time into its stages. Stages
// the request did not run stay zero; Total covers the whole call, so
// Total minus the sum of the stages is the (small) dispatch overhead.
type Timings struct {
	// Classify covers the syntactic pass: class, schema, fingerprint.
	Classify time.Duration
	// Acyclicity covers the positional-criteria evaluation.
	Acyclicity time.Duration
	// Decide covers the termination decision procedure.
	Decide time.Duration
	// Chase covers the chase run itself.
	Chase time.Duration
	// Render covers materializing the final instance (WithFacts only;
	// lazy rendering after Analyze returns is not accounted here).
	Render time.Duration
	// Total is the wall time of the Analyze call.
	Total time.Duration
}

// EngineStats aggregates the chase engine's counters for a run. It is
// the superset of ChaseStats that also carries TriggersEnqueued — the
// scheduler-side count the public ChaseStats predates — so the
// observability layer reports every counter the engine keeps.
type EngineStats struct {
	InitialFacts      int
	FactsAdded        int
	TriggersApplied   int
	TriggersNoop      int
	TriggersSatisfied int
	TriggersEnqueued  int
	MaxTermDepth      int
}

// Report is the unified result of Analyzer.Analyze. The classification
// fields (Class, NumRules, MaxArity, Predicates, Fingerprint) are
// always populated — classification is a cheap syntactic pass and every
// other analysis needs it anyway; the remaining fields are populated
// according to the request: Verdict for AnalyzeDecide, Chase for
// AnalyzeChase, Acyclicity for AnalyzeAcyclicity or WithAcyclicity.
type Report struct {
	// Kind echoes the request.
	Kind AnalysisKind
	// Fingerprint is the canonical content address of the rule set
	// (RuleSet.Fingerprint) — the cache key of the analysis service.
	Fingerprint string

	// Classification of the rule set (always populated).
	Class      Class
	NumRules   int
	MaxArity   int
	Predicates []string

	// Verdict is the termination decision (AnalyzeDecide).
	Verdict *Verdict
	// Chase is the chase run result (AnalyzeChase). On cancellation it
	// holds the partial result — outcome Canceled, statistics up to the
	// stopping point — alongside the returned context error.
	Chase *ChaseResult
	// Acyclicity is the positional-criteria report (AnalyzeAcyclicity or
	// WithAcyclicity).
	Acyclicity *AcyclicityReport

	// Timings breaks the call's wall time into stages; always populated.
	Timings Timings
	// Engine aggregates the engine counters of a chase run
	// (AnalyzeChase), including the partial counters of a canceled run.
	Engine *EngineStats
}

// Analyzer is the single entry point to every analysis of the library:
// classification, all-instance and fixed-database termination
// decisions, bounded chase runs, and the positional acyclicity
// criteria, all behind one context-first call. The zero value is ready
// to use and Analyze is safe for concurrent use.
//
//	var an chaseterm.Analyzer
//	rep, err := an.Analyze(ctx, chaseterm.NewRequest(
//		chaseterm.AnalyzeDecide, rules,
//		chaseterm.WithVariant(chaseterm.SemiOblivious),
//	))
//
// Every all-instance decision climbs one path, the termination
// portfolio, and its verdict records the deciding rung (DecidedBy) and
// the per-rung trace (Rungs).
type Analyzer struct{}

// Analyze runs the request and returns its report. The context is
// honored cooperatively by every long-running procedure (deciders poll
// it at fixpoint/worklist boundaries, the chase engine every ~1024
// trigger applications). For AnalyzeChase, cancellation returns the
// partial report together with ctx.Err(); every other kind returns a
// nil report with the context error.
// Analyze also observes the request: the report's Timings section is
// always populated, and when the context carries an obs.Trace (the
// analysis service threads one through every job), the decider, chase,
// and render stages are additionally recorded as spans on it.
func (a Analyzer) Analyze(ctx context.Context, req Request) (*Report, error) {
	start := time.Now()
	rep, err := a.analyze(ctx, req)
	if rep != nil {
		rep.Timings.Total = time.Since(start)
	}
	return rep, err
}

func (Analyzer) analyze(ctx context.Context, req Request) (*Report, error) {
	if req.Rules == nil {
		return nil, fmt.Errorf("chaseterm: analysis request has no rule set")
	}
	if req.databaseSet && req.database == nil {
		// A nil database is a caller bug, not "no database": silently
		// falling back to the all-instance / critical-instance behavior
		// would answer a different question.
		return nil, fmt.Errorf("chaseterm: analysis request has a nil database")
	}
	if req.database != nil {
		// A fact read with the wrong arity would be matched as another
		// atom by the deciders and the engine, or crash them.
		if err := req.database.CheckArities(req.Rules); err != nil {
			return nil, err
		}
	}
	tr := obs.FromContext(ctx) // nil-safe: Add on a nil trace is a no-op
	stage := time.Now()
	rep := &Report{
		Kind:        req.Kind,
		Fingerprint: req.Rules.Fingerprint(),
		Class:       req.Rules.Classify(),
		NumRules:    req.Rules.NumRules(),
		MaxArity:    req.Rules.MaxArity(),
		Predicates:  req.Rules.Predicates(),
	}
	rep.Timings.Classify = time.Since(stage)
	if req.withAcyclicity || req.Kind == AnalyzeAcyclicity {
		stage = time.Now()
		acyc := checkAcyclicity(req.Rules)
		rep.Acyclicity = &acyc
		rep.Timings.Acyclicity = time.Since(stage)
	}
	switch req.Kind {
	case AnalyzeClassify, AnalyzeAcyclicity:
		return rep, nil
	case AnalyzeDecide:
		var verdict *Verdict
		var err error
		stage = time.Now()
		if req.database != nil {
			verdict, err = decideOnDatabase(ctx, req.database, req.Rules, req.Variant(), req.decideOpts)
		} else {
			verdict, err = decidePortfolio(ctx, req.Rules, req.Variant(), req.decideOpts)
		}
		rep.Timings.Decide = time.Since(stage)
		tr.Add(obs.SpanDecider, rep.Timings.Decide)
		if err != nil {
			return nil, err
		}
		rep.Verdict = verdict
		return rep, nil
	case AnalyzeChase:
		db := req.database
		if db == nil {
			db = CriticalDatabase(req.Rules)
		}
		stage = time.Now()
		res, err := runChase(ctx, db, req.Rules, req.Variant(), req.chaseOpts, req.sink)
		rep.Timings.Chase = time.Since(stage)
		tr.Add(obs.SpanChase, rep.Timings.Chase)
		if res == nil {
			return nil, err
		}
		if err == nil && req.renderFacts {
			stage = time.Now()
			res.Facts()
			rep.Timings.Render = time.Since(stage)
			tr.Add(obs.SpanRender, rep.Timings.Render)
		}
		rep.Chase = res
		engine := res.engine
		rep.Engine = &engine
		// err is non-nil exactly when the run was canceled; the partial
		// report still carries the stats gathered so far.
		return rep, err
	default:
		return nil, fmt.Errorf("chaseterm: unknown analysis kind %v", req.Kind)
	}
}
