// Package chaseterm is a library for reasoning about the chase procedure
// over existential rules (tuple-generating dependencies, TGDs), built as a
// faithful implementation of
//
//	Marco Calautti, Georg Gottlob, Andreas Pieris:
//	"Chase Termination for Guarded Existential Rules", PODS 2015.
//
// It provides:
//
//   - the three standard chase variants (oblivious, semi-oblivious,
//     restricted) as bounded, instrumented engines (AnalyzeChase);
//   - syntactic classification of rule sets into the paper's classes —
//     simple-linear ⊆ linear ⊆ guarded ⊆ general (Classify);
//   - exact decision procedures for all-instance chase termination
//     (AnalyzeDecide): critical-weak/rich acyclicity for linear rules
//     (Theorems 1–3) and the guarded chase-forest decision procedure
//     (Theorem 4), run as the top rungs of a ladder of cheap sound
//     criteria (positional acyclicity, bounded critical-instance chases)
//     that also answers outside the guarded class, where the problem is
//     undecidable;
//   - the looping operator (LoopEntailment), the paper's reduction from
//     propositional atom entailment to the complement of chase
//     termination, usable to generate hard termination instances.
//
// # Quick start
//
// Every analysis goes through one context-first entry point, the
// Analyzer:
//
//	var an chaseterm.Analyzer
//	rules, _ := chaseterm.ParseRules(`person(X) -> hasFather(X,Y), person(Y).`)
//	rep, _ := an.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules))
//	fmt.Println(rep.Verdict.Terminates) // "non-terminating": Example 1 runs forever
//
// Rule syntax: `body -> head.` with comma-separated atoms; identifiers
// starting with an upper-case letter (or '_') are variables; head
// variables absent from the body are existentially quantified; facts are
// ground atoms terminated by '.'.
package chaseterm

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"chaseterm/internal/acyclicity"
	"chaseterm/internal/chase"
	"chaseterm/internal/core"
	"chaseterm/internal/critical"
	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
	"chaseterm/internal/looping"
	"chaseterm/internal/parse"
)

// Variant selects a chase flavour. See the package documentation of
// internal/chase for the exact trigger semantics.
type Variant int

const (
	// Oblivious applies one trigger per distinct homomorphism.
	Oblivious Variant = iota
	// SemiOblivious (Skolem) applies one trigger per distinct frontier
	// restriction.
	SemiOblivious
	// Restricted applies only triggers whose head is not yet satisfied.
	Restricted
)

func (v Variant) String() string { return v.engine().String() }

func (v Variant) engine() chase.Variant {
	switch v {
	case Oblivious:
		return chase.Oblivious
	case SemiOblivious:
		return chase.SemiOblivious
	default:
		return chase.Restricted
	}
}

// ParseVariant accepts "o"/"oblivious", "so"/"semi-oblivious"/"skolem",
// "r"/"restricted"/"standard".
func ParseVariant(s string) (Variant, error) {
	cv, err := chase.ParseVariant(s)
	if err != nil {
		return 0, err
	}
	switch cv {
	case chase.Oblivious:
		return Oblivious, nil
	case chase.SemiOblivious:
		return SemiOblivious, nil
	default:
		return Restricted, nil
	}
}

// Class is a syntactic class of rule sets, ordered by inclusion.
type Class int

const (
	// SimpleLinear: one body atom, no repeated body variables.
	SimpleLinear Class = iota
	// Linear: one body atom.
	Linear
	// Guarded: some body atom holds all universally quantified variables.
	Guarded
	// General: everything else.
	General
)

func (c Class) String() string {
	return [...]string{"simple-linear", "linear", "guarded", "general"}[c]
}

// RuleSet is a parsed, validated set of TGDs. It is read-only: its
// schema summary and fingerprint are worked out once and kept, so one
// parsed set may be shared by any number of goroutines and analyses.
type RuleSet struct {
	rs *logic.RuleSet

	fpOnce sync.Once
	fp     string
}

// ParseRules parses a rule set from text.
func ParseRules(src string) (*RuleSet, error) {
	rs, err := parse.ParseRules(src)
	if err != nil {
		return nil, err
	}
	return &RuleSet{rs: rs}, nil
}

// MustParseRules is ParseRules panicking on error, for tests and examples.
func MustParseRules(src string) *RuleSet {
	rs, err := ParseRules(src)
	if err != nil {
		panic(err)
	}
	return rs
}

// String renders the rule set in the input syntax.
func (r *RuleSet) String() string { return r.rs.String() }

// NumRules returns the number of TGDs.
func (r *RuleSet) NumRules() int { return len(r.rs.Rules) }

// Classify returns the most specific syntactic class containing the set.
func (r *RuleSet) Classify() Class {
	switch r.rs.Classify() {
	case logic.ClassSimpleLinear:
		return SimpleLinear
	case logic.ClassLinear:
		return Linear
	case logic.ClassGuarded:
		return Guarded
	default:
		return General
	}
}

// MaxArity returns the maximum predicate arity of the schema.
func (r *RuleSet) MaxArity() int { return r.rs.MaxArity() }

// Predicates lists the schema as "name/arity" strings.
func (r *RuleSet) Predicates() []string {
	schema := r.rs.Schema()
	if len(schema) == 0 {
		return nil
	}
	// One string holds every entry; out slices it.
	var b strings.Builder
	ends := make([]int, len(schema))
	for i, p := range schema {
		b.WriteString(p.Name)
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(p.Arity))
		ends[i] = b.Len()
	}
	all := b.String()
	out := make([]string, len(schema))
	start := 0
	for i, end := range ends {
		out[i], start = all[start:end], end
	}
	return out
}

// Fingerprint returns a stable content-addressed identity for the rule
// set: the SHA-256 hex digest of its canonical form. The canonical form
// renames the variables of every rule to V0, V1, … in order of first
// occurrence (body before head) and sorts the rendered rules, so the
// fingerprint is invariant under rule reordering and variable renaming,
// and deterministic across processes. It is the cache key of the
// analysis service (internal/service). Computed once and memoized —
// every Analyzer report carries it, so repeated analyses of the same
// set must not re-canonicalize.
func (r *RuleSet) Fingerprint() string {
	r.fpOnce.Do(func() {
		rules := r.rs.Rules
		// Every canonical rule goes into one buffer; rule i is
		// buf[ends[i-1]:ends[i]].
		var buf []byte
		var vars []logic.Variable
		ends := make([]int, len(rules))
		for i, t := range rules {
			buf, vars = appendCanonicalRule(buf, t, vars[:0])
			ends[i] = len(buf)
		}
		line := func(i int) []byte {
			if i == 0 {
				return buf[:ends[0]]
			}
			return buf[ends[i-1]:ends[i]]
		}
		order := make([]int, len(rules))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return bytes.Compare(line(a), line(b)) })
		h, nl := sha256.New(), []byte{'\n'}
		for _, i := range order {
			h.Write(line(i))
			h.Write(nl)
		}
		r.fp = hex.EncodeToString(h.Sum(nil))
	})
	return r.fp
}

// appendCanonicalRule appends a TGD's canonical text to dst: the rule as
// TGD.String renders it, with its variables renamed to V0, V1, … in order
// of first occurrence across the body atoms and then the head atoms. vars
// numbers the variables seen so far. Canonical names cannot collide with
// constants: the renderer single-quotes any constant that starts with an
// upper-case letter, so a bare V0 is always a variable.
func appendCanonicalRule(dst []byte, t *logic.TGD, vars []logic.Variable) ([]byte, []logic.Variable) {
	dst, vars = appendCanonicalAtoms(dst, t.Body, vars)
	dst = append(dst, " -> "...)
	return appendCanonicalAtoms(dst, t.Head, vars)
}

func appendCanonicalAtoms(dst []byte, atoms []logic.Atom, vars []logic.Variable) ([]byte, []logic.Variable) {
	for i, a := range atoms {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, a.Pred...)
		if len(a.Args) == 0 {
			continue
		}
		dst = append(dst, '(')
		for j, arg := range a.Args {
			if j > 0 {
				dst = append(dst, ',')
			}
			switch x := arg.(type) {
			case logic.Variable:
				n := slices.Index(vars, x)
				if n < 0 {
					n = len(vars)
					vars = append(vars, x)
				}
				dst = strconv.AppendInt(append(dst, 'V'), int64(n), 10)
			case logic.Constant:
				dst = x.Append(dst)
			}
		}
		dst = append(dst, ')')
	}
	return dst, vars
}

// Internal returns the underlying representation; exposed for the
// command-line tools and benchmarks living in this module.
func (r *RuleSet) Internal() *logic.RuleSet { return r.rs }

// Database is a finite set of ground facts.
type Database struct {
	atoms []logic.Atom
	// checked is the last rule set the facts passed CheckArities
	// against, so the checks of one request along its path (the service,
	// then the analyzer) walk the facts once.
	checked atomic.Pointer[logic.RuleSet]
}

// ParseDatabase parses ground facts from text.
func ParseDatabase(src string) (*Database, error) {
	fs, err := parse.ParseFacts(src)
	if err != nil {
		return nil, err
	}
	return &Database{atoms: fs}, nil
}

// MustParseDatabase is ParseDatabase panicking on error.
func MustParseDatabase(src string) *Database {
	db, err := ParseDatabase(src)
	if err != nil {
		panic(err)
	}
	return db
}

// Size returns the number of facts.
func (d *Database) Size() int { return len(d.atoms) }

// String renders the database in the input syntax.
func (d *Database) String() string { return parse.FormatFacts(d.atoms) }

// CheckArities reports an error when a fact of the database uses a
// predicate with another arity than the rules give it. Every analysis
// that puts the database under the rules runs it first. A repeat check
// against the rule set that passed last returns at once.
func (d *Database) CheckArities(rules *RuleSet) error {
	if rules.rs != nil && d.checked.Load() == rules.rs {
		return nil
	}
	if err := parse.CheckFactArities(rules.rs, d.atoms); err != nil {
		return err
	}
	d.checked.Store(rules.rs)
	return nil
}

// CriticalDatabase returns the critical instance I*(Σ): all atoms over the
// schema of the rule set filled with a fresh constant ✶ and the rule
// constants. The (semi-)oblivious chase terminates on every database iff
// it terminates on this one (Marnette's lemma; see internal/critical).
func CriticalDatabase(rules *RuleSet) *Database {
	return &Database{atoms: critical.Facts(rules.rs)}
}

// ChaseOutcome reports how a chase run ended.
type ChaseOutcome int

const (
	// Terminated: the run reached a fixpoint; the result is a universal
	// model of the database and the rules.
	Terminated ChaseOutcome = iota
	// BudgetExceeded: the fact/trigger budget ran out first.
	BudgetExceeded
	// DepthExceeded: an invented term exceeded Options.MaxDepth.
	DepthExceeded
	// Canceled: the context passed to Analyzer.Analyze fired before the
	// run finished. Analyze returns the partial result (stats up to the
	// stopping point) together with the context's error.
	Canceled
)

func (o ChaseOutcome) String() string {
	return [...]string{"terminated", "budget-exceeded", "depth-exceeded", "canceled"}[o]
}

// ChaseOptions bound a chase run; the zero value means generous defaults
// (10^6 facts and triggers).
type ChaseOptions struct {
	MaxTriggers int
	MaxFacts    int
	MaxDepth    int
}

// ChaseStats aggregates run statistics.
type ChaseStats struct {
	InitialFacts      int
	FactsAdded        int
	TriggersApplied   int
	TriggersNoop      int
	TriggersSatisfied int
	MaxTermDepth      int
}

// ChaseResult is the outcome of a chase run (Report.Chase).
type ChaseResult struct {
	Variant Variant
	Outcome ChaseOutcome
	Stats   ChaseStats

	// engine is the full engine counter set, a superset of Stats
	// (TriggersEnqueued has no field in the public ChaseStats); surfaced
	// as Report.Engine by Analyzer.Analyze.
	engine EngineStats

	factsOnce sync.Once
	facts     []string
	// indexOnce indexes every column of inst before the first query
	// compiles its pattern, so compiling a query over the result's
	// predicates and constants writes nothing and queries may run
	// concurrently.
	indexOnce sync.Once
	inst      *instance.Instance
}

// compileQuery compiles a conjunctive query over the chase result.
func (r *ChaseResult) compileQuery(body string) (*instance.Pattern, error) {
	atoms, err := parse.ParseAtomList(body)
	if err != nil {
		return nil, err
	}
	r.indexOnce.Do(r.inst.IndexAll)
	return instance.CompileBody(r.inst, atoms)
}

// Facts returns the final instance as sorted, rendered atoms. Invented
// nulls render as z1, z2, …; Skolem terms as f0_Y(bob) etc. Rendering
// happens lazily on the first call and is memoized; callers that only
// inspect Stats or run queries never pay for it. The strings are
// substrings of one rendering of the whole instance.
func (r *ChaseResult) Facts() []string {
	r.factsOnce.Do(func() { r.facts = r.inst.Strings() })
	return r.facts
}

// Query evaluates a conjunctive query over the chase result and returns
// the certain answers: the bindings of the answer variables that contain
// no invented value. When the chase Terminated, its result is a universal
// model, so these are exactly the certain answers of the query over the
// database and the rules — the classic use of the chase for query
// answering under constraints.
//
// body is a comma-separated conjunction, e.g. "teaches(P,C), course(C)";
// answerVars names the variables to project, e.g. "P", "C". Each answer is
// a tuple of rendered constants in answerVars order; answers are
// deduplicated and sorted.
func (r *ChaseResult) Query(body string, answerVars ...string) ([][]string, error) {
	pat, err := r.compileQuery(body)
	if err != nil {
		return nil, err
	}
	proj := make([]int, len(answerVars))
	for i, v := range answerVars {
		idx := pat.VarIndex(logic.Variable(v))
		if idx < 0 {
			return nil, fmt.Errorf("chaseterm: answer variable %s does not occur in the query", v)
		}
		proj[i] = idx
	}
	seen := make(map[string]bool)
	var out [][]string
	r.inst.FindHoms(pat, nil, func(binding []instance.TermID) bool {
		tuple := make([]string, len(proj))
		for i, idx := range proj {
			t := binding[idx]
			if r.inst.Terms.IsInvented(t) {
				return true // not a certain answer
			}
			tuple[i] = r.inst.Terms.String(t)
		}
		key := strings.Join(tuple, "\x00")
		if !seen[key] {
			seen[key] = true
			out = append(out, tuple)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out, nil
}

// CoreFacts computes the core of the chase result — its smallest retract,
// with constants rigid and invented values foldable — and returns it as
// sorted rendered atoms along with the number of redundant facts removed.
// For a terminated restricted or oblivious chase in a data-exchange
// setting, this is the minimal universal solution ("getting to the core",
// Fagin–Kolaitis–Popa).
func (r *ChaseResult) CoreFacts() (facts []string, removed int) {
	core, n := instance.Core(r.inst)
	return core.Strings(), n
}

// Holds reports whether the boolean conjunctive query has at least one
// homomorphism into the chase result (invented values allowed — this is
// certain-answer semantics for a boolean query over a universal model).
func (r *ChaseResult) Holds(body string) (bool, error) {
	pat, err := r.compileQuery(body)
	if err != nil {
		return false, err
	}
	return r.inst.HasHom(pat, nil), nil
}

// runChase is the chase-run implementation behind Analyzer.Analyze.
// A non-nil sink streams derived facts while the run is in progress
// (see ChaseSink); facts buffered at the end of the run — complete,
// canceled, or budget-stopped — are flushed before runChase returns.
func runChase(ctx context.Context, db *Database, rules *RuleSet, v Variant, opt ChaseOptions, sink ChaseSink) (*ChaseResult, error) {
	copt := chase.Options{
		MaxTriggers: opt.MaxTriggers,
		MaxFacts:    opt.MaxFacts,
		MaxDepth:    int32(opt.MaxDepth),
	}
	var res *chase.Result
	var err error
	if sink == nil {
		res, err = chase.RunFromAtomsContext(ctx, db.atoms, rules.rs, v.engine(), copt)
	} else {
		var in *instance.Instance
		in, err = instance.FromAtoms(db.atoms)
		if err != nil {
			return nil, err
		}
		var eng *chase.Engine
		eng, err = chase.NewEngine(in, rules.rs, v.engine(), copt)
		if err != nil {
			return nil, err
		}
		ad := &sinkAdapter{in: in, sink: sink}
		res, err = eng.RunStreamContext(ctx, ad)
		if res != nil {
			ad.flush(res.Stats)
		}
	}
	if res == nil {
		return nil, err
	}
	out := &ChaseResult{
		Variant: v,
		inst:    res.Instance,
		Stats:   toChaseStats(res.Stats),
		engine: EngineStats{
			InitialFacts:      res.Stats.InitialFacts,
			FactsAdded:        res.Stats.FactsAdded,
			TriggersApplied:   res.Stats.TriggersApplied,
			TriggersNoop:      res.Stats.TriggersNoop,
			TriggersSatisfied: res.Stats.TriggersSatisfied,
			TriggersEnqueued:  res.Stats.TriggersEnqueued,
			MaxTermDepth:      int(res.Stats.MaxTermDepth),
		},
	}
	switch res.Outcome {
	case chase.Terminated:
		out.Outcome = Terminated
	case chase.DepthExceeded:
		out.Outcome = DepthExceeded
	case chase.Canceled:
		out.Outcome = Canceled
	default:
		out.Outcome = BudgetExceeded
	}
	return out, err
}

// Ternary is a three-valued answer.
type Ternary int

const (
	// Unknown: no procedure could decide (only outside the guarded class).
	Unknown Ternary = iota
	// Yes: the chase terminates on every database.
	Yes
	// No: some database (the critical instance) has a non-terminating
	// chase.
	No
)

func (t Ternary) String() string {
	return [...]string{"unknown", "terminating", "non-terminating"}[t]
}

// Verdict is a termination decision (Report.Verdict of AnalyzeDecide).
type Verdict struct {
	// Terminates answers "is the rule set in CT^v?".
	Terminates Ternary
	// Class is the syntactic class the decision was made in.
	Class Class
	// Method names the procedure that produced the verdict. All-instance
	// decisions: rich-acyclicity, weak-acyclicity, joint-acyclicity (the
	// positional rungs; with an "(SL)" suffix when Theorem 1 makes a
	// failed check a non-termination proof), mfa, mfa(aux),
	// critical-saturation, bounded-oracle, critical-weak-acyclicity,
	// critical-rich-acyclicity, guarded-forest, guarded-forest(aux); a
	// restricted-variant Yes appends "→restricted", and restricted-open
	// marks the open restricted case. Fixed-database decisions append
	// "(fixed-db)".
	Method string
	// Witness is a human-readable non-termination certificate (a pumpable
	// shape cycle or node-type cycle), or a diagnostic for Unknown.
	Witness string
	// SearchSpace reports the explored abstraction size (shapes or node
	// types), the quantity behind the paper's complexity bounds.
	SearchSpace int

	// DecidedBy names the portfolio rung whose verdict was adopted
	// ("weak-acyclicity", "mfa", "linear-exact", …). It is set on every
	// all-instance decision and empty only when every applicable rung
	// was inconclusive; for the restricted variant it names the rung
	// that decided the underlying CT^so question, whether or not the Yes
	// transferred. Fixed-database decisions leave it empty.
	DecidedBy string
	// Rungs traces every portfolio rung that ran, in ladder order
	// (all-instance decisions only).
	Rungs []RungTiming
}

// Default budgets used when the corresponding DecideOptions field is
// zero; exported so callers (and caches keyed on options) can treat an
// explicit default and an omitted field as the same request.
const (
	DefaultMaxShapes    = core.DefaultMaxShapes
	DefaultMaxNodeTypes = core.DefaultMaxNodeTypes
)

// DecideOptions bound the decision procedures.
type DecideOptions struct {
	// MaxShapes caps the linear decider's abstract-shape space
	// (0 = DefaultMaxShapes).
	MaxShapes int
	// MaxNodeTypes caps the guarded decider's node-type space
	// (0 = DefaultMaxNodeTypes).
	MaxNodeTypes int
	// OracleMaxTriggers / OracleMaxFacts bound the critical-instance
	// chases of the mfa and saturation rungs, and the bounded run of a
	// fixed-database decision over general rules (defaults 200k).
	OracleMaxTriggers int
	OracleMaxFacts    int
}

func fromCoreVerdict(v *core.Verdict, class Class) *Verdict {
	out := &Verdict{
		Class:   class,
		Method:  v.Method,
		Witness: v.Witness,
	}
	switch v.Answer {
	case core.Terminating:
		out.Terminates = Yes
	case core.NonTerminating:
		out.Terminates = No
	default:
		out.Terminates = Unknown
	}
	if v.ShapeCount > 0 {
		out.SearchSpace = v.ShapeCount
	} else {
		out.SearchSpace = v.NodeTypeCount
	}
	return out
}

// decideOnDatabase is the fixed-database decision procedure behind
// Analyzer.Analyze: whether the v-chase of the GIVEN database under the
// rule set terminates. Exact for linear and guarded rule sets (the
// abstractions of Theorems 2 and 4 apply unchanged when seeded with the
// database instead of the critical instance); for general TGDs the
// problem stays undecidable and a bounded run decides only the positive
// direction. The restricted variant reports Yes when the semi-oblivious
// chase of the database terminates (its triggers subsume the restricted
// ones) and Unknown otherwise. opt bounds the abstraction search and the
// bounded fallback run exactly as in the all-instance decision.
func decideOnDatabase(ctx context.Context, db *Database, rules *RuleSet, v Variant, opt DecideOptions) (*Verdict, error) {
	class := rules.Classify()
	if v == Restricted {
		so, err := decideOnDatabase(ctx, db, rules, SemiOblivious, opt)
		if err != nil {
			return nil, err
		}
		if so.Terminates == Yes {
			so.Method += "→restricted"
			return so, nil
		}
		return &Verdict{Terminates: Unknown, Class: class, Method: "restricted-open",
			Witness: "restricted-chase termination is open; CT^so on this database gave " + so.Terminates.String()}, nil
	}
	cv := core.VariantSemiOblivious
	if v == Oblivious {
		cv = core.VariantOblivious
	}
	coreOpts := core.Options{MaxShapes: opt.MaxShapes, MaxNodeTypes: opt.MaxNodeTypes}
	switch class {
	case SimpleLinear, Linear:
		res, err := core.DecideLinearOnContext(ctx, rules.rs, db.atoms, cv, coreOpts)
		if err != nil {
			return nil, err
		}
		res.Verdict.Method += "(fixed-db)"
		return fromCoreVerdict(res.Verdict, class), nil
	case Guarded:
		target := rules.rs
		method := "guarded-forest(fixed-db)"
		if v == Oblivious {
			target = critical.AuxTransform(rules.rs)
			method = "guarded-forest(aux,fixed-db)"
		}
		res, err := core.DecideGuardedOnContext(ctx, target, db.atoms, coreOpts)
		if err != nil {
			return nil, err
		}
		res.Method = method
		return fromCoreVerdict(res, class), nil
	default:
		budgets := ChaseOptions{MaxTriggers: 200_000, MaxFacts: 200_000}
		if opt.OracleMaxTriggers > 0 {
			budgets.MaxTriggers = opt.OracleMaxTriggers
		}
		if opt.OracleMaxFacts > 0 {
			budgets.MaxFacts = opt.OracleMaxFacts
		}
		run, err := runChase(ctx, db, rules, v, budgets, nil)
		if err != nil {
			return nil, err
		}
		if run.Outcome == Terminated {
			return &Verdict{Terminates: Yes, Class: class, Method: "saturation(fixed-db)"}, nil
		}
		return &Verdict{Terminates: Unknown, Class: class, Method: "bounded-run(fixed-db)",
			Witness: fmt.Sprintf("run stopped with %s after %d facts", run.Outcome, run.Stats.FactsAdded)}, nil
	}
}

// AcyclicityReport collects the positional sufficient conditions for chase
// termination, ordered by strength: RA ⊆ WA ⊆ JA. Rich acyclicity implies
// CT^o; weak and joint acyclicity imply CT^so (and hence restricted-chase
// termination). All three are sound but incomplete — the exact deciders of
// AnalyzeDecide subsume them on linear and guarded sets (experiment E14
// quantifies the gap).
type AcyclicityReport struct {
	RichlyAcyclic  bool
	WeaklyAcyclic  bool
	JointlyAcyclic bool
	// RAWitness / WAWitness / JAWitness describe a dangerous cycle when
	// the corresponding check fails (for joint acyclicity: a feeds cycle
	// over existential variables).
	RAWitness string
	WAWitness string
	JAWitness string
}

// checkAcyclicity is the positional-criteria evaluation behind
// Analyzer.Analyze.
func checkAcyclicity(rules *RuleSet) AcyclicityReport {
	var rep AcyclicityReport
	var w *acyclicity.Witness
	rep.RichlyAcyclic, w = acyclicity.IsRichlyAcyclic(rules.rs)
	if w != nil {
		rep.RAWitness = w.String()
	}
	rep.WeaklyAcyclic, w = acyclicity.IsWeaklyAcyclic(rules.rs)
	if w != nil {
		rep.WAWitness = w.String()
	}
	rep.JointlyAcyclic, w = acyclicity.IsJointlyAcyclic(rules.rs)
	if w != nil {
		rep.JAWitness = w.String()
	}
	return rep
}

// ExploreResult reports the outcome of ExploreRestrictedSequences.
type ExploreResult struct {
	// Found: some restricted-chase sequence from the database terminates;
	// Trace lists the applied rule indexes of one shortest such sequence.
	Found bool
	// Exhausted: the search space was fully explored without pruning;
	// combined with Found == false this certifies that every restricted
	// sequence diverges past the fact bound.
	Exhausted      bool
	StatesExplored int
	Trace          []int
	FinalFacts     []string
}

// ExploreOptions bound ExploreRestrictedSequences (zero values = defaults:
// 10k states, 200 facts per state).
type ExploreOptions struct {
	MaxStates int
	MaxFacts  int
}

// ExploreRestrictedSequences searches the tree of restricted-chase
// sequences of the database for a terminating one, branching on which
// active trigger fires next. The paper's §2 defines both the ∀-sequence
// and ∃-sequence termination problems; they coincide for the oblivious and
// semi-oblivious chase but differ for the restricted chase, where firing a
// "repairing" trigger first can satisfy an "inventing" trigger before it
// is considered — this explorer makes the difference observable on
// concrete databases. (Deciding the restricted problems for all databases
// is the paper's open problem and is not attempted.)
func ExploreRestrictedSequences(db *Database, rules *RuleSet, opt ExploreOptions) (*ExploreResult, error) {
	if err := db.CheckArities(rules); err != nil {
		return nil, err
	}
	res, err := chase.ExploreRestrictedTermination(db.atoms, rules.rs, chase.ExploreOptions{
		MaxStates: opt.MaxStates,
		MaxFacts:  opt.MaxFacts,
	})
	if err != nil {
		return nil, err
	}
	return &ExploreResult{
		Found:          res.Found,
		Exhausted:      res.Exhausted,
		StatesExplored: res.StatesExplored,
		Trace:          res.Trace,
		FinalFacts:     res.FinalFacts,
	}, nil
}

// EntailmentInstance is a propositional-atom-entailment question: does
// DB ∪ Rules entail Goal? Goal must be a ground atom in the input syntax,
// e.g. "reach(c)".
type EntailmentInstance struct {
	Rules *RuleSet
	DB    *Database
	Goal  string
}

// LoopEntailment applies the paper's looping operator: it returns a rule
// set whose (semi-)oblivious chase termination is the complement of the
// entailment answer (provided each generation of the source rules
// saturates — e.g. Datalog rules; see internal/looping). The returned set
// stays in the syntactic class of the input, so the exact deciders apply.
func LoopEntailment(inst EntailmentInstance) (*RuleSet, error) {
	goalFacts, err := parse.ParseFacts(inst.Goal + ".")
	if err != nil {
		return nil, fmt.Errorf("chaseterm: bad goal: %w", err)
	}
	if len(goalFacts) != 1 {
		return nil, fmt.Errorf("chaseterm: goal must be a single ground atom")
	}
	looped, err := looping.Loop(looping.Instance{
		Rules: inst.Rules.rs,
		DB:    inst.DB.atoms,
		Goal:  goalFacts[0],
	})
	if err != nil {
		return nil, err
	}
	return &RuleSet{rs: looped}, nil
}

// EntailsContext answers the entailment question directly by saturation
// (semi-oblivious chase); exact whenever the chase of DB under Rules
// terminates, which is always the case for Datalog rules. The underlying
// chase polls the context, so a canceled or expired context surfaces as
// ctx.Err().
func EntailsContext(ctx context.Context, inst EntailmentInstance) (bool, error) {
	goalFacts, err := parse.ParseFacts(inst.Goal + ".")
	if err != nil {
		return false, fmt.Errorf("chaseterm: bad goal: %w", err)
	}
	if len(goalFacts) != 1 {
		return false, fmt.Errorf("chaseterm: goal must be a single ground atom")
	}
	if err := parse.CheckFactArities(inst.Rules.rs, append(goalFacts, inst.DB.atoms...)); err != nil {
		return false, err
	}
	return looping.EntailedContext(ctx, looping.Instance{
		Rules: inst.Rules.rs,
		DB:    inst.DB.atoms,
		Goal:  goalFacts[0],
	}, chase.Options{})
}
