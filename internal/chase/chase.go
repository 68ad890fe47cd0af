// Package chase implements the TGD chase procedure in its three standard
// variants — oblivious, semi-oblivious and restricted — over the instance
// substrate, exactly as defined in Section 2 of "Chase Termination for
// Guarded Existential Rules" (Calautti, Gottlob, Pieris, PODS 2015).
//
// A trigger for a set Σ on an instance I is a pair (σ, h) where σ = φ → ψ
// is in Σ and h is a homomorphism mapping φ into I. Applying (σ, h) adds
// h′(ψ) where h′ ⊇ h maps each existential variable of σ to a fresh null.
// The variants differ in when two triggers are considered "the same" (and
// hence fire only once) and in whether satisfied triggers fire at all:
//
//   - Oblivious: triggers are identified by the full homomorphism h; every
//     distinct (σ, h) is applied exactly once.
//   - Semi-oblivious: homomorphisms agreeing on the frontier of σ (the
//     universally quantified variables occurring in the head) are
//     indistinguishable. We implement this as the Skolem chase: existential
//     variables are mapped to interned Skolem terms f_{σ,z}(h(frontier)),
//     so indistinguishable triggers literally produce identical facts.
//   - Restricted: a trigger is applied only if it is active, i.e. h cannot
//     be extended to a homomorphism h′ mapping the head into the current
//     instance.
//
// The engine schedules triggers in FIFO order, which realizes the fairness
// condition of the paper's definition of (possibly infinite) chase
// sequences: every trigger that arises is eventually considered. Budgets
// on applied triggers, facts, and invented-term depth make the engine
// usable as a bounded oracle for the termination deciders in internal/core.
package chase

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
)

// Variant selects the chase flavour.
type Variant int

const (
	// Oblivious is the naive chase: one application per distinct
	// homomorphism.
	Oblivious Variant = iota
	// SemiOblivious is the Skolem chase: one application per distinct
	// frontier restriction.
	SemiOblivious
	// Restricted is the standard chase: only triggers whose head is not
	// already satisfied fire.
	Restricted
)

func (v Variant) String() string {
	switch v {
	case Oblivious:
		return "oblivious"
	case SemiOblivious:
		return "semi-oblivious"
	default:
		return "restricted"
	}
}

// ParseVariant maps the strings "o"/"oblivious", "so"/"semi-oblivious",
// "r"/"restricted" to a Variant.
func ParseVariant(s string) (Variant, error) {
	switch strings.ToLower(s) {
	case "o", "oblivious":
		return Oblivious, nil
	case "so", "semi-oblivious", "semioblivious", "skolem":
		return SemiOblivious, nil
	case "r", "restricted", "standard":
		return Restricted, nil
	}
	return 0, fmt.Errorf("chase: unknown variant %q", s)
}

// Outcome reports how a run ended.
type Outcome int

const (
	// Terminated: no unapplied trigger remains; the result is final.
	Terminated Outcome = iota
	// BudgetExceeded: the trigger or fact budget was exhausted first.
	BudgetExceeded
	// DepthExceeded: an invented term deeper than Options.MaxDepth was
	// created; with Skolem semantics this is strong evidence of
	// non-termination and is reported separately from a plain budget stop.
	DepthExceeded
	// CyclicTerm: a Skolem term nesting its own function symbol was
	// created and Options.StopOnCyclicSkolem was set (the model-faithful
	// acyclicity test of Grau et al.).
	CyclicTerm
	// Canceled: the context passed to RunContext was canceled or its
	// deadline expired before the run finished. The result carries the
	// statistics accumulated so far; RunContext additionally returns the
	// context's error.
	Canceled
)

func (o Outcome) String() string {
	switch o {
	case Terminated:
		return "terminated"
	case BudgetExceeded:
		return "budget-exceeded"
	case DepthExceeded:
		return "depth-exceeded"
	case Canceled:
		return "canceled"
	default:
		return "cyclic-term"
	}
}

// Options bound a chase run. The zero value means "defaults" (generous but
// finite budgets); explicit zero budgets are replaced by the defaults.
type Options struct {
	// MaxTriggers caps the number of applied triggers (default 1e6).
	MaxTriggers int
	// MaxFacts caps the total number of facts (default 1e6).
	MaxFacts int
	// MaxDepth caps the invented-term depth (default 1<<30, i.e. off).
	MaxDepth int32
	// StopOnCyclicSkolem stops the run with Outcome CyclicTerm as soon as
	// the semi-oblivious chase invents a Skolem term whose function symbol
	// occurs transitively inside one of its arguments. This implements the
	// model-faithful-acyclicity stopping rule: a run that saturates
	// without such a term proves termination on every instance.
	StopOnCyclicSkolem bool
	// Workers is ignored: ROADMAP item 2's benchmark-only change deletes it with chase.parallel_ratio.
	Workers int
}

func (o Options) withDefaults() Options {
	// Non-positive budgets are treated as "use the default". A negative
	// budget is never a meaningful request — letting it through would make
	// every run stop immediately with BudgetExceeded/DepthExceeded (or
	// report Terminated having done no work).
	if o.MaxTriggers <= 0 {
		o.MaxTriggers = 1_000_000
	}
	if o.MaxFacts <= 0 {
		o.MaxFacts = 1_000_000
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 1 << 30
	}
	return o
}

// Stats aggregates run statistics.
type Stats struct {
	InitialFacts int
	FactsAdded   int
	// TriggersApplied counts trigger applications (restricted: active
	// triggers actually fired).
	TriggersApplied int
	// TriggersNoop counts applications that created no new fact — the
	// "superfluous" work the semi-oblivious chase is designed to avoid.
	TriggersNoop int
	// TriggersSatisfied counts restricted-chase triggers skipped because
	// their head was already satisfied.
	TriggersSatisfied int
	// TriggersEnqueued counts distinct triggers discovered.
	TriggersEnqueued int
	MaxTermDepth     int32
}

// Result of a chase run.
type Result struct {
	Variant  Variant
	Outcome  Outcome
	Instance *instance.Instance
	Stats    Stats
}

// StreamSink observes a run incrementally; see RunStreamContext. Both
// callbacks run synchronously on the chase goroutine, so an
// implementation may read the engine's instance during the call (e.g.
// render the facts of the reported range) but must not retain
// references across calls and must not mutate the instance.
type StreamSink interface {
	// EmitFacts reports that the facts [lo, hi) were appended to the
	// instance by one trigger application. Ranges are contiguous and
	// strictly increasing: successive calls tile the derived suffix of
	// the instance exactly once, so a consumer streaming the run sees
	// every derived fact once and in derivation order. stats is the
	// running total after the application.
	EmitFacts(lo, hi instance.FactID, stats Stats)
	// Progress is a liveness heartbeat, delivered every ~ctxCheckInterval
	// scheduler steps even when no facts are being derived — e.g. a
	// restricted chase skipping a long run of already-satisfied
	// triggers.
	Progress(stats Stats)
}

type headSlotKind uint8

const (
	slotFrontier headSlotKind = iota
	slotExistential
	slotConst
)

type headSlot struct {
	kind headSlotKind
	idx  int             // frontier index or existential index
	term instance.TermID // for consts
}

type headAtom struct {
	pred  instance.PredID
	slots []headSlot
}

type compiledRule struct {
	src       *logic.TGD
	body      *instance.Pattern
	frontier  []int                 // pattern-variable indexes of frontier variables, in frontier order
	nExist    int                   // number of existential variables
	skolemFns []instance.SkolemFnID // per existential variable
	head      []headAtom
	// headPattern is the head compiled as a body-style pattern whose first
	// len(frontier) variables are the frontier (in the same order), used
	// for the restricted chase's satisfaction checks of rules with
	// existential variables; nil otherwise. A full rule's head is ground
	// once the frontier is bound, so its check is a lookup per atom.
	headPattern *instance.Pattern
	// unique is set when a trigger of the rule is fixed by the one fact
	// its body atom maps to (see uniqueTriggers). The engine queues such a
	// trigger as that fact and keeps no identity key for it.
	unique bool
	// argPos maps each variable of a unique rule's body atom to the first
	// argument position that holds it; nil for other rules.
	argPos []int
}

// Engine runs one chase over one instance. Create with NewEngine, then call
// RunContext or RunStreamContext once. The instance is mutated in place.
//
// Pending triggers wait in a FIFO ring of (rule, ref) pairs that reuses
// the slots of popped triggers. A unique rule's trigger is its anchor
// fact: the engine reads its frontier from the fact's arguments when it
// pops it and keeps no identity key for it, so the oblivious and
// restricted chase of linear rules (Theorems 2–3 of the paper) keep no
// trigger set at all. Any other trigger is its member id in the identity
// set seen, whose tuple holds its key.
//
// The steady-state loop — popping a trigger whose facts all exist and
// whose successor triggers are all duplicates — is allocation-free: the
// trigger identity set, fact store and Skolem interner are
// instance.TupleSets probed against their arenas, and the ring, the
// per-application existential/argument buffers and the homomorphism
// scratch are pooled on the engine.
type Engine struct {
	in      *instance.Instance
	rules   []compiledRule
	variant Variant
	opt     Options

	// seen is the identity set of the triggers that can repeat, tagged by
	// rule; the triggers of unique rules never enter it.
	seen   instance.TupleSet
	queue  ring
	stats  Stats
	byPred [][][2]int // PredID -> (rule, bodyAtom) pairs
	// scratch holds a frontier projection: the semi-oblivious trigger
	// key in offer, the oblivious and restricted frontier in frontierOf.
	// The variants never overlap, so one buffer serves both.
	scratch []instance.TermID
	// fr holds the frontier of a popped unique trigger, read from its
	// anchor fact. It cannot be scratch: under the semi-oblivious chase,
	// apply → discover → offer of a probed rule rewrites scratch while
	// apply is still writing head atoms from the frontier.
	fr    []instance.TermID
	match instance.MatchScratch
	exBuf []instance.TermID
	// argBuf holds one instantiated head atom (headArgs). NewEngine sizes
	// it for the widest head atom, so it never grows.
	argBuf []instance.TermID
	// offerFn is the one seeding/discovery callback: it offers the found
	// binding for rule curRule. The matcher is never re-entered while an
	// enumeration is live (offer only hashes and enqueues), so a single
	// closure + current-rule field replaces a per-rule closure vector.
	offerFn    func([]instance.TermID) bool
	curRule    int
	cyclicSeen bool
	// sink, when non-nil, receives the derived facts incrementally (see
	// RunStreamContext). The hot loop pays one nil check per applied
	// trigger when unset, preserving the zero-allocation steady state.
	sink StreamSink
}

// frontierOf resolves a popped trigger of rule cr to its frontier. A
// unique rule's trigger reads it from the arguments of its anchor fact
// ref into e.fr. Any other trigger reads its key, member ref of seen:
// the semi-oblivious key is the frontier itself; the oblivious and
// restricted key is the full binding, projected into e.scratch.
//
//chaselint:hotpath
func (e *Engine) frontierOf(cr *compiledRule, ref int32) []instance.TermID {
	if cr.unique {
		args := e.in.Fact(instance.FactID(ref)).Args
		e.fr = e.fr[:0]
		for _, vi := range cr.frontier {
			e.fr = append(e.fr, args[cr.argPos[vi]])
		}
		return e.fr
	}
	key := e.seen.Tuple(ref)
	if e.variant == SemiOblivious {
		return key
	}
	return e.scratchFrontier(cr, key)
}

// fnOccurs reports whether the Skolem function fn occurs in term t
// (transitively through Skolem arguments).
func (e *Engine) fnOccurs(fn instance.SkolemFnID, t instance.TermID) bool {
	tt := e.in.Terms
	if tt.Kind(t) != instance.KindSkolem {
		return false
	}
	if tt.SkolemFnOf(t) == fn {
		return true
	}
	for _, a := range tt.SkolemArgs(t) {
		if e.fnOccurs(fn, a) {
			return true
		}
	}
	return false
}

// NewEngine compiles the rule set against the instance. The rule set must
// validate.
func NewEngine(in *instance.Instance, rs *logic.RuleSet, v Variant, opt Options) (*Engine, error) {
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		in:      in,
		variant: v,
		opt:     opt.withDefaults(),
		rules:   make([]compiledRule, len(rs.Rules)),
	}
	var ar ruleArena
	maxArity := 0
	for ri, r := range rs.Rules {
		cr := &e.rules[ri]
		if err := compileRule(in, ri, r, cr, &ar); err != nil {
			return nil, err
		}
		if cr.unique = uniqueTriggers(cr, v); cr.unique {
			cr.argPos = ar.argPositions(cr.body)
		}
		// Only the restricted chase checks heads, and a full rule's
		// check needs no pattern: the engine compiles only what it runs,
		// so the instance indexes only the columns those plans probe.
		if v == Restricted && cr.nExist > 0 {
			hp, err := ar.ps.CompileHead(in, r.Head, r.Frontier())
			if err != nil {
				return nil, err
			}
			cr.headPattern = hp
		}
		for _, ha := range cr.head {
			maxArity = max(maxArity, len(ha.slots))
		}
	}
	e.argBuf = make([]instance.TermID, 0, maxArity)
	// Every predicate of the rules and the instance is interned by now,
	// and a run derives facts of head predicates only.
	e.byPred = make([][][2]int, in.NumPreds())
	for ri := range e.rules {
		for ai, pa := range e.rules[ri].body.Atoms {
			e.byPred[pa.Pred] = append(e.byPred[pa.Pred], [2]int{ri, ai})
		}
	}
	e.offerFn = func(b []instance.TermID) bool {
		e.offer(e.curRule, b)
		return true
	}
	return e, nil
}

// varPos returns the index of v in vars, or -1 — the rule vocabularies
// are tiny, so a linear scan beats a map both in time and allocation.
func varPos(vars []logic.Variable, v logic.Variable) int {
	for i, w := range vars {
		if w == v {
			return i
		}
	}
	return -1
}

// ruleArena batches the small per-rule compile slices of a whole rule set
// into a handful of growing backings. Earlier subslices stay readable
// across growth (the retired backing arrays are never mutated), so the
// arena needs no pre-counting pass.
type ruleArena struct {
	frontier []int
	argPos   []int
	fns      []instance.SkolemFnID
	heads    []headAtom
	slots    []headSlot
	ps       instance.PatternSet
}

// argPositions returns, for each variable of a one-atom body, the first
// argument position that holds it. The pattern numbers variables in
// order of first occurrence, so a slot whose variable is the next number
// is a first occurrence.
func (ar *ruleArena) argPositions(body *instance.Pattern) []int {
	start := len(ar.argPos)
	for i, s := range body.Atoms[0].Args {
		if s.IsVar && s.Var == len(ar.argPos)-start {
			ar.argPos = append(ar.argPos, i)
		}
	}
	return ar.argPos[start:len(ar.argPos):len(ar.argPos)]
}

// compileRule compiles the rule's body pattern, frontier, Skolem
// functions and head atoms into cr. It leaves cr.headPattern nil: the
// caller compiles the head pattern where it runs one.
func compileRule(in *instance.Instance, ri int, r *logic.TGD, cr *compiledRule, ar *ruleArena) error {
	body, err := ar.ps.Compile(in, r.Body, nil)
	if err != nil {
		return err
	}
	cr.src = r
	cr.body = body
	fr := r.Frontier()
	frStart := len(ar.frontier)
	for _, v := range fr {
		ar.frontier = append(ar.frontier, body.VarIndex(v))
	}
	cr.frontier = ar.frontier[frStart:len(ar.frontier):len(ar.frontier)]
	ex := r.Existentials()
	cr.nExist = len(ex)
	fnStart := len(ar.fns)
	var nameBuf [32]byte
	for _, z := range ex {
		// "f<rule>_<var>" built without fmt.Sprintf: at most one string
		// allocation per symbol (inside SkolemFn, on a table miss).
		name := append(nameBuf[:0], 'f')
		name = strconv.AppendInt(name, int64(ri), 10)
		name = append(name, '_')
		name = append(name, z...)
		ar.fns = append(ar.fns, in.Terms.SkolemFnBytes(name))
	}
	cr.skolemFns = ar.fns[fnStart:len(ar.fns):len(ar.fns)]
	haStart := len(ar.heads)
	for _, a := range r.Head {
		slStart := len(ar.slots)
		for _, t := range a.Args {
			switch t := t.(type) {
			case logic.Variable:
				if i := varPos(fr, t); i >= 0 {
					ar.slots = append(ar.slots, headSlot{kind: slotFrontier, idx: i})
				} else {
					ar.slots = append(ar.slots, headSlot{kind: slotExistential, idx: varPos(ex, t)})
				}
			case logic.Constant:
				ar.slots = append(ar.slots, headSlot{kind: slotConst, term: in.Terms.Const(string(t))})
			}
		}
		ar.heads = append(ar.heads, headAtom{
			pred:  in.Pred(a.Pred, len(a.Args)),
			slots: ar.slots[slStart:len(ar.slots):len(ar.slots)],
		})
	}
	cr.head = ar.heads[haStart:len(ar.heads):len(ar.heads)]
	return nil
}

// uniqueTriggers reports whether the variant's trigger key of cr fixes
// the fact its body maps to, so no two triggers of the rule share a key.
// That holds for a one-atom body (a linear rule, Theorems 2–3 of the
// paper) when the key is the whole homomorphism: under the oblivious and
// restricted chase, and under the semi-oblivious chase when the frontier
// holds every body variable. Such a trigger is found exactly once — its
// fact anchors the rule once, at seeding or when discover sees the fact
// new — so it can never repeat, and the fact alone identifies it: the
// engine queues the fact and reads the frontier from its arguments.
func uniqueTriggers(cr *compiledRule, v Variant) bool {
	if len(cr.body.Atoms) != 1 {
		return false
	}
	return v != SemiOblivious || len(cr.frontier) == len(cr.body.VarNames)
}

// anchor queues the trigger of unique rule ri that a fact with arguments
// args anchors, if the fact matches the rule's body atom: it holds the
// atom's constants, and the positions of a repeated variable hold one
// term. The check replaces a matcher enumeration; a match is one
// homomorphism, since the atom holds every body variable.
//
//chaselint:hotpath
func (e *Engine) anchor(ri int, fid instance.FactID, args []instance.TermID) {
	cr := &e.rules[ri]
	for i, s := range cr.body.Atoms[0].Args {
		if !s.IsVar {
			if args[i] != s.Term {
				return
			}
		} else if args[cr.argPos[s.Var]] != args[i] {
			return
		}
	}
	e.queue.push(pending{rule: int32(ri), ref: int32(fid)})
	e.stats.TriggersEnqueued++
}

// offer registers a homomorphism of a rule that is not unique as a
// trigger, deduplicating by the variant's trigger identity. A duplicate
// offer — the steady state of a saturating run — performs zero
// allocations: the identity key is hashed from the binding in place and
// compared against the tuple-set arena.
//
//chaselint:hotpath
func (e *Engine) offer(rule int, binding []instance.TermID) {
	key := binding // Oblivious and Restricted identify triggers by the full h.
	if e.variant == SemiOblivious {
		key = e.scratchFrontier(&e.rules[rule], binding)
	}
	if id, added := e.seen.Insert(int32(rule), key); added {
		e.queue.push(pending{rule: int32(rule), ref: id})
		e.stats.TriggersEnqueued++
	}
}

// scratchFrontier projects the binding onto the rule frontier using the
// engine's reusable scratch buffer.
//
//chaselint:hotpath
func (e *Engine) scratchFrontier(cr *compiledRule, binding []instance.TermID) []instance.TermID {
	e.scratch = e.scratch[:0]
	for _, vi := range cr.frontier {
		e.scratch = append(e.scratch, binding[vi])
	}
	return e.scratch
}

// ctxCheckInterval is how many trigger applications pass between polls
// of the run context. 1024 keeps the per-trigger overhead of the hot
// loop at a fraction of a nanosecond (one mask-and-compare; the channel
// poll is amortized) while bounding the cancellation latency to the
// cost of ~1024 applications.
const ctxCheckInterval = 1024

// canceled is the non-blocking poll of a run context's done channel;
// nil (context.Background()) is free.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// RunStreamContext is RunContext with incremental fact delivery: sink
// observes every batch of derived facts at trigger-application
// granularity, plus periodic progress heartbeats. A nil sink is exactly
// RunContext. Cancellation semantics are unchanged — on a canceled
// context the facts emitted so far remain valid and the partial result
// is returned with ctx.Err().
func (e *Engine) RunStreamContext(ctx context.Context, sink StreamSink) (*Result, error) {
	e.sink = sink
	defer func() { e.sink = nil }()
	return e.RunContext(ctx)
}

// RunContext executes the chase to termination or budget exhaustion,
// with cooperative cancellation: the context is polled
// before seeding each rule and every ctxCheckInterval trigger
// applications. When it fires, the partial result — Outcome Canceled,
// statistics up to the stopping point — is returned together with
// ctx.Err(), so callers can either propagate the error or inspect how
// far the run got.
//
//chaselint:hotpath
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	done := ctx.Done() // nil for context.Background(): checks compile out
	e.stats.InitialFacts = e.in.Size()
	// Seed: all homomorphisms on the initial instance. Seeding a rule is
	// itself a join over the whole instance, so the context is checked
	// between rules. A unique rule's triggers are the facts of its
	// predicate's extent that match its body atom.
	for ri := range e.rules {
		if canceled(done) {
			return e.result(Canceled), ctx.Err()
		}
		if cr := &e.rules[ri]; cr.unique {
			for _, fid := range e.in.ByPred(cr.body.Atoms[0].Pred) {
				e.anchor(ri, fid, e.in.Fact(fid).Args)
			}
			continue
		}
		e.curRule = ri
		e.in.FindHomsWith(&e.match, e.rules[ri].body, nil, e.offerFn)
	}
	outcome := Terminated
	steps := 0 // counts loop iterations, not applications: the restricted
	// chase can pop long runs of already-satisfied triggers without
	// applying any, and each satisfaction check is real work too.
loop:
	for {
		if steps%ctxCheckInterval == 0 {
			if canceled(done) {
				outcome = Canceled
				break loop
			}
			if e.sink != nil {
				e.sink.Progress(e.stats)
			}
		}
		steps++
		if e.stats.TriggersApplied >= e.opt.MaxTriggers || e.in.Size() >= e.opt.MaxFacts {
			if e.queue.n > 0 {
				outcome = BudgetExceeded
			}
			break loop
		}
		p, ok := e.queue.pop()
		if !ok {
			break loop
		}
		cr := &e.rules[p.rule]
		fr := e.frontierOf(cr, p.ref)
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
		if e.sink != nil && added > 0 {
			// Facts are append-only, so the facts of this application are
			// exactly the trailing [size-added, size) range.
			hi := instance.FactID(e.in.Size())
			e.sink.EmitFacts(hi-instance.FactID(added), hi, e.stats)
		}
		if maxDepth > e.opt.MaxDepth {
			outcome = DepthExceeded
			break loop
		}
		if e.cyclicSeen {
			outcome = CyclicTerm
			break loop
		}
	}
	if outcome == Canceled {
		return e.result(Canceled), ctx.Err()
	}
	return e.result(outcome), nil
}

func (e *Engine) result(outcome Outcome) *Result {
	return &Result{
		Variant:  e.variant,
		Outcome:  outcome,
		Instance: e.in,
		Stats:    e.stats,
	}
}

// headSatisfied reports whether the head of cr, with its frontier bound to
// fr, already has a homomorphism into the instance: a search of the head
// pattern when the rule has existential variables, else one fact lookup
// per head atom. Allocation-free: it reuses the engine's match scratch
// and argument buffer.
//
//chaselint:hotpath
func (e *Engine) headSatisfied(cr *compiledRule, fr []instance.TermID) bool {
	if cr.headPattern != nil {
		return e.in.HasHomWith(&e.match, cr.headPattern, fr)
	}
	for i := range cr.head {
		ha := &cr.head[i]
		if !e.in.Contains(ha.pred, e.headArgs(ha, fr, nil)) {
			return false
		}
	}
	return true
}

// headArgs instantiates a head atom into the engine's argument buffer,
// with the frontier bound to fr and the existential variables to ex.
//
//chaselint:hotpath
func (e *Engine) headArgs(ha *headAtom, fr, ex []instance.TermID) []instance.TermID {
	args := e.argBuf[:0]
	for _, s := range ha.slots {
		switch s.kind {
		case slotFrontier:
			args = append(args, fr[s.idx])
		case slotExistential:
			args = append(args, ex[s.idx])
		default:
			args = append(args, s.term)
		}
	}
	return args
}

// apply fires a trigger: it invents nulls (oblivious/restricted) or Skolem
// terms (semi-oblivious) for the existential variables, adds the head
// facts, and discovers the new triggers they enable. The existential and
// argument buffers are pooled on the engine, so an application whose facts
// all exist already (a steady-state no-op) allocates nothing.
//
//chaselint:hotpath
func (e *Engine) apply(cr *compiledRule, fr []instance.TermID) (added int, maxDepth int32) {
	// Birth depth for fresh nulls: one more than the deepest frontier term.
	var birth int32
	for _, t := range fr {
		if d := e.in.Terms.Depth(t); d > birth {
			birth = d
		}
	}
	if cap(e.exBuf) < cr.nExist {
		e.exBuf = make([]instance.TermID, cr.nExist)
	}
	ex := e.exBuf[:cr.nExist]
	for i := range ex {
		if e.variant == SemiOblivious {
			ex[i] = e.in.Terms.Skolem(cr.skolemFns[i], fr)
			if e.opt.StopOnCyclicSkolem && !e.cyclicSeen {
				for _, a := range fr {
					if e.fnOccurs(cr.skolemFns[i], a) {
						e.cyclicSeen = true
						break
					}
				}
			}
		} else {
			ex[i] = e.in.Terms.FreshNull(birth + 1)
		}
		if d := e.in.Terms.Depth(ex[i]); d > maxDepth {
			maxDepth = d
		}
	}
	for i := range cr.head {
		fid, isNew := e.in.Add(cr.head[i].pred, e.headArgs(&cr.head[i], fr, ex))
		if isNew {
			added++
			e.stats.FactsAdded++
			e.discover(fid)
		}
	}
	return added, maxDepth
}

// discover finds the triggers newly enabled by fact fid: for every rule
// body atom with a matching predicate, homomorphisms that map that atom to
// fid. A unique rule's trigger is the fact itself (see anchor). For other
// rules the per-variant trigger identity deduplicates homomorphisms found
// through several anchors.
//
//chaselint:hotpath
func (e *Engine) discover(fid instance.FactID) {
	f := e.in.Fact(fid)
	for _, ra := range e.byPred[f.Pred] {
		ri, ai := ra[0], ra[1]
		if e.rules[ri].unique {
			e.anchor(ri, fid, f.Args)
			continue
		}
		e.curRule = ri
		e.in.FindHomsAnchoredWith(&e.match, e.rules[ri].body, ai, fid, e.offerFn)
	}
}

// RunContext is the package-level convenience: compile and run in one
// call. See Engine.RunContext for the cancellation contract.
func RunContext(ctx context.Context, in *instance.Instance, rs *logic.RuleSet, v Variant, opt Options) (*Result, error) {
	e, err := NewEngine(in, rs, v, opt)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx)
}

// RunFromAtomsContext runs the chase over a database given as ground
// atoms.
func RunFromAtomsContext(ctx context.Context, db []logic.Atom, rs *logic.RuleSet, v Variant, opt Options) (*Result, error) {
	in, err := instance.FromAtoms(db)
	if err != nil {
		return nil, err
	}
	return RunContext(ctx, in, rs, v, opt)
}

// IsModel verifies that the instance satisfies every TGD of the rule set:
// for each homomorphism from a body into the instance there is an extension
// mapping the head into the instance. It returns a counterexample
// description, or "" if the instance is a model. Used by tests to certify
// that terminating chase results are models of the input (property 1 of the
// chase in the paper's introduction).
func IsModel(in *instance.Instance, rs *logic.RuleSet) (string, error) {
	var ar ruleArena
	for ri, r := range rs.Rules {
		cr := new(compiledRule)
		if err := compileRule(in, ri, r, cr, &ar); err != nil {
			return "", err
		}
		hp, err := ar.ps.CompileHead(in, r.Head, r.Frontier())
		if err != nil {
			return "", err
		}
		violation := ""
		in.FindHoms(cr.body, nil, func(b []instance.TermID) bool {
			fr := make([]instance.TermID, len(cr.frontier))
			for i, vi := range cr.frontier {
				fr[i] = b[vi]
			}
			if !in.HasHom(hp, fr) {
				parts := make([]string, len(b))
				for i, t := range b {
					parts[i] = cr.body.VarNames[i].String() + "=" + in.Terms.String(t)
				}
				violation = fmt.Sprintf("rule %d (%s) violated under %s", ri, r, strings.Join(parts, ","))
				return false
			}
			return true
		})
		if violation != "" {
			return violation, nil
		}
	}
	return "", nil
}
