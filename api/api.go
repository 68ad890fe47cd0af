// Package api defines the versioned JSON wire contract of the chaseterm
// analysis service: the request, response, and error-envelope types
// exchanged over POST /v2/analyze. The server (internal/service, served
// by cmd/chased) and the Go client (package client) share these types
// end-to-end, so a field added here is immediately visible on both
// sides — and a field renamed here fails the golden-fixture tests
// loudly instead of silently breaking deployed clients.
//
// Versioning: this package describes wire version "v2", the only
// generation the server speaks. Compatible additions (new optional
// fields, new error codes) happen in place; a breaking change would get
// a new package (api/v3) and a new route.
package api

import "time"

// Version is the wire version this package describes, and the path
// segment of the routes that speak it (POST /v2/analyze).
const Version = "v2"

// Kind selects the analysis an AnalyzeRequest runs. On the v2 wire the
// kind always travels in the request body, not the URL.
type Kind string

const (
	// KindClassify reports the syntactic class and schema of the rules.
	KindClassify Kind = "classify"
	// KindDecide decides chase termination: for every database, or for
	// the request's database only when one is supplied.
	KindDecide Kind = "decide"
	// KindChase runs a bounded chase over the request's database, or
	// over the critical instance when none is supplied.
	KindChase Kind = "chase"
	// KindAcyclicity evaluates the positional acyclicity criteria.
	KindAcyclicity Kind = "acyclicity"
)

// Valid reports whether k is a kind this wire version defines.
func (k Kind) Valid() bool {
	switch k {
	case KindClassify, KindDecide, KindChase, KindAcyclicity:
		return true
	}
	return false
}

// AnalyzeRequest is the body of POST /v2/analyze, and one entry of a
// batch. Rules is required; everything else defaults sensibly (variant
// "so", library budgets).
type AnalyzeRequest struct {
	// Kind selects the analysis; required on /v2/analyze.
	Kind Kind `json:"kind"`
	// Rules is the rule set in the Datalog± surface syntax.
	Rules string `json:"rules"`
	// Variant applies to decide and chase kinds; empty means
	// semi-oblivious ("so"), the variant the paper's exact procedures
	// target. Accepted: "o"/"oblivious", "so"/"semi-oblivious"/"skolem",
	// "r"/"restricted"/"standard".
	Variant string `json:"variant,omitempty"`
	// Database holds ground facts. For chase kinds it seeds the run
	// (empty means the critical instance); for decide kinds it switches
	// to the fixed-database decision problem. A fact that uses a rule
	// predicate with another arity is a bad request.
	Database string `json:"database,omitempty"`

	// Decide budgets (zero = library defaults).
	MaxShapes    int `json:"maxShapes,omitempty"`
	MaxNodeTypes int `json:"maxNodeTypes,omitempty"`

	// Chase budgets (zero = library defaults).
	MaxTriggers int `json:"maxTriggers,omitempty"`
	MaxFacts    int `json:"maxFacts,omitempty"`
	MaxDepth    int `json:"maxDepth,omitempty"`
	// ReturnFacts includes the final instance in a chase response; off
	// by default because instances can be large.
	ReturnFacts bool `json:"returnFacts,omitempty"`

	// WithAcyclicity attaches the positional acyclicity report to the
	// response, whatever the kind.
	WithAcyclicity bool `json:"withAcyclicity,omitempty"`

	// Portfolio asks for the per-rung trace of an all-instance decide
	// (Decision.Rungs). Every all-instance decide climbs the termination
	// portfolio — the ladder of cheap sound criteria runs before the
	// exact deciders — and names its deciding rung (Decision.DecidedBy)
	// whether or not this is set. Ignored when a database is attached.
	// Servers that predate the portfolio reject the field; probe GET
	// /v2/capabilities first.
	Portfolio bool `json:"portfolio,omitempty"`

	// Trace attaches the per-request observability report — per-stage
	// durations and engine counters — to the response (see Trace).
	Trace bool `json:"trace,omitempty"`
}

// AnalyzeResponse is the body of a successful POST /v2/analyze, and one
// entry of a batch result. The classification block (class, schema,
// fingerprint) is always present; Decision, Chase, and Acyclicity are
// present according to the request's kind and options.
type AnalyzeResponse struct {
	// Kind echoes the request.
	Kind Kind `json:"kind"`
	// Fingerprint is the canonical content address of the rule set —
	// stable under rule reordering and variable renaming, and the
	// server's cache key.
	Fingerprint string `json:"fingerprint,omitempty"`

	// Classification. The numeric fields are pointers so that a
	// legitimate zero (a nullary-predicate schema has maxArity 0) is
	// emitted rather than dropped by omitempty: present ⇔ meaningful.
	Class      string   `json:"class,omitempty"`
	NumRules   *int     `json:"numRules,omitempty"`
	MaxArity   *int     `json:"maxArity,omitempty"`
	Predicates []string `json:"predicates,omitempty"`

	// Cached reports that the decision came from the server's verdict
	// cache (stored entry or a deduplicated concurrent flight).
	Cached bool `json:"cached,omitempty"`

	// Decision is the termination verdict (kind "decide").
	Decision *Decision `json:"decision,omitempty"`
	// Chase is the chase-run result (kind "chase").
	Chase *ChaseRun `json:"chase,omitempty"`
	// Acyclicity is the positional-criteria report (kind "acyclicity"
	// or withAcyclicity on any kind).
	Acyclicity *Acyclicity `json:"acyclicity,omitempty"`

	// Trace is the per-request observability report; present only when
	// the request set trace.
	Trace *Trace `json:"trace,omitempty"`

	// Error is set instead of the result sections when a batch entry
	// fails; single requests report errors at the HTTP level with an
	// ErrorEnvelope.
	Error *Error `json:"error,omitempty"`
}

// Decision is a termination verdict.
type Decision struct {
	// Terminates: "terminating", "non-terminating", or "unknown".
	Terminates string `json:"terminates"`
	// Class is the syntactic class the decision was made in.
	Class string `json:"class"`
	// Method names the deciding procedure.
	Method string `json:"method"`
	// Witness is a human-readable non-termination certificate, or a
	// diagnostic for "unknown".
	Witness string `json:"witness,omitempty"`
	// SearchSpace is the explored abstraction size (shapes or node
	// types).
	SearchSpace int `json:"searchSpace"`

	// DecidedBy names the portfolio rung whose verdict this decision
	// adopted. Present on every all-instance decision unless every
	// applicable rung was inconclusive; absent on fixed-database ones.
	DecidedBy string `json:"decidedBy,omitempty"`
	// Rungs traces every portfolio rung that ran, in ladder order;
	// present only when the request set portfolio.
	Rungs []Rung `json:"rungs,omitempty"`
}

// Rung is one portfolio rung's entry in a decision trace.
type Rung struct {
	// Name is the stable rung label ("weak-acyclicity", "mfa",
	// "guarded-exact", …).
	Name string `json:"name"`
	// Verdict is the rung's own answer: "terminating",
	// "non-terminating", or "undecided".
	Verdict string `json:"verdict"`
	// Millis is the rung's wall time in milliseconds.
	Millis float64 `json:"millis"`
}

// ChaseRun is the result of a bounded chase run.
type ChaseRun struct {
	// Outcome: "terminated", "budget-exceeded", "depth-exceeded", or
	// "canceled".
	Outcome string `json:"outcome"`
	// Stats aggregates the run counters.
	Stats ChaseStats `json:"stats"`
	// Facts is the final instance as rendered atoms; present only when
	// the request set returnFacts.
	Facts []string `json:"facts,omitempty"`
}

// ChaseStats mirrors chaseterm.ChaseStats on the wire.
type ChaseStats struct {
	InitialFacts      int `json:"initialFacts"`
	FactsAdded        int `json:"factsAdded"`
	TriggersApplied   int `json:"triggersApplied"`
	TriggersNoop      int `json:"triggersNoop"`
	TriggersSatisfied int `json:"triggersSatisfied"`
	MaxTermDepth      int `json:"maxTermDepth"`
}

// Acyclicity is the positional sufficient-condition report, ordered by
// strength: richly ⊆ weakly ⊆ jointly acyclic.
type Acyclicity struct {
	RichlyAcyclic  bool `json:"richlyAcyclic"`
	WeaklyAcyclic  bool `json:"weaklyAcyclic"`
	JointlyAcyclic bool `json:"jointlyAcyclic"`
	// RAWitness / WAWitness describe a dangerous cycle when the
	// corresponding check fails; JAWitness the feeds cycle over
	// existential variables.
	RAWitness string `json:"raWitness,omitempty"`
	WAWitness string `json:"waWitness,omitempty"`
	JAWitness string `json:"jaWitness,omitempty"`
}

// Capabilities is the body of GET /v2/capabilities: the feature set of
// the serving binary, so clients can discover optional request fields
// (the v2 decoder is strict and rejects unknown ones) before using
// them.
type Capabilities struct {
	// Version is the wire version of this contract ("v2").
	Version string `json:"version"`
	// Portfolio reports that decide requests accept the "portfolio"
	// field (the per-rung trace) and that decisions carry "decidedBy".
	Portfolio bool `json:"portfolio"`
	// PortfolioRungs lists the portfolio's rung names in ladder order —
	// the label set of the per-rung counters in /metrics and /v1/stats.
	PortfolioRungs []string `json:"portfolioRungs,omitempty"`
}

// BatchRequest is the body of POST /v2/batch: an ordered list of jobs,
// each with its kind in the body.
type BatchRequest struct {
	Jobs []AnalyzeRequest `json:"jobs"`
}

// BatchResponse returns one AnalyzeResponse per job, in input order;
// per-job failures are reported inline via AnalyzeResponse.Error.
type BatchResponse struct {
	Results []AnalyzeResponse `json:"results"`
}

// Code is a machine-readable error class. Codes are stable wire
// contract: clients branch on them, so existing values never change
// meaning (new ones may be added).
type Code string

const (
	// CodeBadRequest: the request was malformed — unparsable JSON or
	// rules, unknown variant or kind, out-of-range budget.
	CodeBadRequest Code = "bad_request"
	// CodeTooLarge: the request body exceeded the server's byte cap.
	CodeTooLarge Code = "too_large"
	// CodeUnprocessable: the analysis ran but gave up on its
	// search-space budget — a property of the instance, not a server
	// fault.
	CodeUnprocessable Code = "unprocessable"
	// CodeTimeout: the per-job timeout expired before the analysis
	// finished.
	CodeTimeout Code = "timeout"
	// CodeCanceled: the client went away before the analysis finished.
	CodeCanceled Code = "canceled"
	// CodeUnavailable: the server is shutting down or overloaded;
	// retrying against a healthy replica is reasonable (the client
	// package does, boundedly).
	CodeUnavailable Code = "unavailable"
	// CodeInternal: an unclassified server-side failure.
	CodeInternal Code = "internal"
)

// HTTPStatus returns the transport status conventionally paired with
// the code — the mapping the server uses and the client inverts.
func (c Code) HTTPStatus() int {
	switch c {
	case CodeBadRequest:
		return 400
	case CodeTooLarge:
		return 413
	case CodeUnprocessable:
		return 422
	case CodeTimeout:
		return 504
	case CodeCanceled:
		return 499 // client closed request (nginx convention)
	case CodeUnavailable:
		return 503
	default:
		return 500
	}
}

// Retryable reports whether a request failing with this code may
// succeed verbatim against the same or another replica.
func (c Code) Retryable() bool { return c == CodeUnavailable }

// Error is the wire form of a failed request: a stable machine-readable
// code plus a human-readable message. It implements the error interface
// so clients can return it directly; errors.As against *api.Error
// recovers the code.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`

	// HTTPStatus is the transport status the error traveled with. Set
	// by clients for callers that care about the raw status; never
	// serialized.
	HTTPStatus int `json:"-"`

	// RetryAfter is the server's Retry-After hint, when the response
	// carried one: how long to wait before retrying. Set by clients from
	// the response header; zero means no hint. Never serialized — it
	// travels as a header, not in the body.
	RetryAfter time.Duration `json:"-"`
}

func (e *Error) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return string(e.Code) + ": " + e.Message
}

// ErrorEnvelope is the body of every non-2xx v2 response:
// {"error": {"code": "...", "message": "..."}}.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
	// RequestID identifies the failed request in the server's logs; the
	// same value travels in the X-Request-ID response header.
	RequestID string `json:"requestId,omitempty"`
}
