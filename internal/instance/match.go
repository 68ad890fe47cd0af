package instance

import (
	"fmt"

	"chaseterm/internal/logic"
)

// Slot is one argument position of a compiled pattern atom: either a
// variable (by dense index) or a fixed ground term.
type Slot struct {
	IsVar bool
	Var   int
	Term  TermID
}

// PatternAtom is a compiled body atom.
type PatternAtom struct {
	Pred PredID
	Args []Slot
}

// Pattern is a compiled conjunction of atoms over variables indexed
// 0..NumVars-1, ready for homomorphism enumeration against an instance.
// A pattern compiled with seed variables (PatternSet.Compile and
// CompileHead) plans its unanchored enumeration with the seeds bound, as
// its callers bind them.
type Pattern struct {
	Atoms   []PatternAtom
	NumVars int
	// VarNames maps the dense variable index back to the source variable,
	// for diagnostics.
	VarNames []logic.Variable

	// seeds counts the leading variables 0..seeds-1 that callers bind
	// through the initial binding of FindHomsWith/HasHomWith (the
	// frontier of a head pattern, see PatternSet.CompileHead). The
	// unanchored plan treats them as bound, so it starts from the atoms
	// that hold them.
	seeds int

	// plans[0] is the static join order for an unanchored enumeration;
	// plans[1+a] the order (excluding atom a) when atom a is the anchor.
	// Compiled once by Compile; see FindHoms for the lazy fallback.
	plans [][]int32
}

// CompileBody compiles a conjunction of logic atoms against the instance's
// predicate and constant tables. The variable order (and hence the binding
// layout) is the order of first occurrence. Join plans are compiled
// eagerly, and the instance indexes the columns they probe (see
// PatternSet.Compile), so the returned pattern is immediately safe for
// concurrent enumeration over a frozen instance. Compiling is a write
// under the single-writer contract: it interns predicates and constants
// and may index columns.
func CompileBody(in *Instance, atoms []logic.Atom) (*Pattern, error) {
	return (*PatternSet)(nil).Compile(in, atoms, nil)
}

// PatternSet batches the storage of many compiled patterns — the pattern
// structs, their atom and slot arrays, and their variable name tables —
// into a handful of shared growing backings, so that compiling a whole
// rule set costs a few allocations instead of a few per pattern. Earlier
// patterns stay valid across backing growth: retired arrays are never
// mutated. A nil *PatternSet is usable and compiles each pattern into
// fresh storage.
type PatternSet struct {
	pats  []Pattern
	atoms []PatternAtom
	slots []Slot
	names []logic.Variable
	sc    compileScratch
}

// compileScratch holds the bitmaps of plan compilation, reused across
// the patterns of a set.
type compileScratch struct {
	bound, used []bool
}

// get returns the scratch bitmaps sized for nVars variables and nAtoms
// atoms; their contents are unspecified.
func (sc *compileScratch) get(nVars, nAtoms int) (bound, used []bool) {
	if cap(sc.bound) < nVars {
		sc.bound = make([]bool, nVars)
	}
	if cap(sc.used) < nAtoms {
		sc.used = make([]bool, nAtoms)
	}
	return sc.bound[:nVars], sc.used[:nAtoms]
}

func (ps *PatternSet) pattern() *Pattern {
	if ps == nil {
		return &Pattern{}
	}
	ps.pats = append(ps.pats, Pattern{})
	return &ps.pats[len(ps.pats)-1]
}

// Compile compiles a conjunction of atoms like CompileBody, drawing
// storage from the set. seedVars, when non-nil, takes the first variable
// indexes in order and is recorded as the pattern's seeds: the
// unanchored plan treats the seed variables as bound, because the caller
// binds them.
//
// The instance indexes every column the pattern's plans probe: walking
// each plan in order, a position that holds a constant, a seed variable
// of the unanchored plan, or a variable bound by the anchor atom or by
// an earlier level. Other columns stay unindexed unless another pattern
// probes them, and the matcher reads their facts from the extent or
// another indexed column. Like CompileBody, Compile is a write under the
// single-writer contract.
func (ps *PatternSet) Compile(in *Instance, atoms []logic.Atom, seedVars []logic.Variable) (*Pattern, error) {
	return ps.compile(in, atoms, seedVars, true)
}

// CompileHead compiles a rule head for satisfaction checks: like Compile
// with the rule's frontier as seedVars (the chase binds the frontier
// from the trigger), except that the instance indexes only the columns
// of the unanchored plan. A head check only asks whether the seeded head
// has a match (HasHomWith) and never anchors the pattern, whether or not
// the frontier is empty.
func (ps *PatternSet) CompileHead(in *Instance, head []logic.Atom, frontier []logic.Variable) (*Pattern, error) {
	return ps.compile(in, head, frontier, false)
}

// compile is Compile; anchored says whether the instance indexes the
// columns of the anchored plans too, or only the unanchored plan's.
func (ps *PatternSet) compile(in *Instance, atoms []logic.Atom, seedVars []logic.Variable, anchored bool) (*Pattern, error) {
	if ps == nil {
		ps = &PatternSet{}
	}
	p := ps.pattern()
	atomStart, nameStart := len(ps.atoms), len(ps.names)
	ps.names = append(ps.names, seedVars...)
	p.NumVars = len(seedVars)
	p.seeds = len(seedVars)
	for _, a := range atoms {
		start := len(ps.slots)
		for _, t := range a.Args {
			switch t := t.(type) {
			case logic.Variable:
				i := varIndexIn(ps.names[nameStart:], t)
				if i < 0 {
					i = p.NumVars
					p.NumVars++
					ps.names = append(ps.names, t)
				}
				ps.slots = append(ps.slots, Slot{IsVar: true, Var: i})
			case logic.Constant:
				ps.slots = append(ps.slots, Slot{Term: in.Terms.Const(string(t))})
			default:
				return nil, fmt.Errorf("instance: unsupported term %v in pattern", t)
			}
		}
		ps.atoms = append(ps.atoms, PatternAtom{
			Pred: in.Pred(a.Pred, len(a.Args)),
			Args: ps.slots[start:len(ps.slots):len(ps.slots)],
		})
	}
	p.Atoms = ps.atoms[atomStart:len(ps.atoms):len(ps.atoms)]
	p.VarNames = ps.names[nameStart:len(ps.names):len(ps.names)]
	p.compile(&ps.sc)
	p.indexProbed(in, &ps.sc, anchored)
	return p, nil
}

// indexProbed indexes the columns the pattern's plans probe — the
// unanchored plan's, and with anchored also every anchored plan's:
// walking each plan in order, every position whose term is ground when
// its level starts — a constant, or a variable the seeds, the anchor
// atom or an earlier level binds. Those are the positions candSource can
// answer from a posting chain.
func (p *Pattern) indexProbed(in *Instance, sc *compileScratch, anchored bool) {
	bound, _ := sc.get(p.NumVars, 0)
	last := -1
	if anchored {
		last = len(p.Atoms) - 1
	}
	for a := -1; a <= last; a++ {
		p.bindStart(a, bound)
		for _, ai := range p.plans[1+a] {
			pa := &p.Atoms[ai]
			for i, s := range pa.Args {
				if !s.IsVar || bound[s.Var] {
					in.IndexColumn(pa.Pred, i)
				}
			}
			for _, s := range pa.Args {
				if s.IsVar {
					bound[s.Var] = true
				}
			}
		}
	}
}

// bindStart sets bound to the variables bound before the first level of
// a plan: the anchor atom's, or with no anchor (anchor < 0) the seeds.
func (p *Pattern) bindStart(anchor int, bound []bool) {
	clear(bound)
	if anchor < 0 {
		for v := 0; v < p.seeds; v++ {
			bound[v] = true
		}
		return
	}
	for _, s := range p.Atoms[anchor].Args {
		if s.IsVar {
			bound[s.Var] = true
		}
	}
}

func varIndexIn(names []logic.Variable, v logic.Variable) int {
	for i, w := range names {
		if w == v {
			return i
		}
	}
	return -1
}

// VarIndex returns the dense index of the named variable, or -1.
func (p *Pattern) VarIndex(v logic.Variable) int {
	for i, w := range p.VarNames {
		if w == v {
			return i
		}
	}
	return -1
}

// smallPlans are the shared immutable plans of 0- and 1-atom patterns —
// the overwhelmingly common case (linear rules): no per-pattern plan
// storage at all.
var smallPlans = [][][]int32{
	{{}},
	{{0}, {}},
}

// Compile precomputes the pattern's static join plans: one atom order for
// the unanchored enumeration (with the seed variables bound) and one per
// anchor atom. The order is chosen by selectivity class — greedily
// preferring atoms whose slots are ground (constants), seeded, or join
// with already-ordered atoms, so that each level of the enumeration can
// use the (pred, pos, term) index. Compile is idempotent; CompileBody
// and the chase compiler call it eagerly. Patterns built by hand are
// compiled lazily on first use, which is safe only under the package's
// single-writer contract, and index no column: their probes of
// unindexed columns read the extent.
func (p *Pattern) Compile() {
	p.compile(&compileScratch{})
}

func (p *Pattern) compile(sc *compileScratch) {
	if p.plans != nil {
		return
	}
	n := len(p.Atoms)
	if n < len(smallPlans) {
		p.plans = smallPlans[n]
		return
	}
	plans := make([][]int32, 1+n)
	// One backing array for every plan order.
	backing := make([]int32, 0, n+n*max(n-1, 0))
	bound, used := sc.get(p.NumVars, n)
	for a := -1; a < n; a++ {
		start := len(backing)
		backing = p.planOrder(a, backing, bound, used)
		plans[1+a] = backing[start:len(backing):len(backing)]
	}
	p.plans = plans
}

// planOrder appends a static atom order to backing, assuming the anchor
// atom's variables — or, with no anchor, the seed variables — are bound
// first. Greedy: repeatedly pick the unordered atom with the most
// ground-or-bound slots, breaking ties toward fewer free variables and
// lower index. bound and used are caller-provided scratch bitmaps.
func (p *Pattern) planOrder(anchor int, backing []int32, bound, used []bool) []int32 {
	n := len(p.Atoms)
	p.bindStart(anchor, bound)
	clear(used)
	size := n
	if anchor >= 0 {
		used[anchor] = true
		size = n - 1
	}
	order := backing
	for len(order) < len(backing)+size {
		best, bestScore, bestFree := -1, -1, 0
		for ai := range p.Atoms {
			if used[ai] {
				continue
			}
			score, free := 0, 0
			for _, s := range p.Atoms[ai].Args {
				if !s.IsVar || bound[s.Var] {
					score++
				} else {
					free++
				}
			}
			if score > bestScore || (score == bestScore && free < bestFree) {
				best, bestScore, bestFree = ai, score, free
			}
		}
		used[best] = true
		order = append(order, int32(best))
		for _, s := range p.Atoms[best].Args {
			if s.IsVar {
				bound[s.Var] = true
			}
		}
	}
	return order
}

// MatchScratch holds the reusable per-enumeration state of the matcher:
// the variable binding and one candidate cursor + undo list per join
// level. A zero MatchScratch is ready to use; it grows to the largest
// pattern it has served and is reused across calls without allocating.
// A scratch must not be shared between concurrently running enumerations,
// nor between an enumeration and a nested one started from its callback —
// use one scratch per nesting level.
type MatchScratch struct {
	binding []TermID
	levels  []matchLevel
	anchor  []int32
}

// candSrc is a level's candidate source: either a dense predicate extent
// (list non-nil) or an index posting chain starting at head and linked
// through Instance.next at argument position pos. n is the candidate
// count, used for selectivity comparison.
type candSrc struct {
	list []FactID
	head FactID
	pos  int32
	n    int32
}

type matchLevel struct {
	src  candSrc
	pos  int   // cursor into src.list
	cur  int32 // current chain fact id+1; 0 = exhausted
	undo []int32
}

// start positions the level at the first candidate of its source.
func (L *matchLevel) start(src candSrc) {
	L.src = src
	L.pos = 0
	L.cur = 0
	if src.list == nil && src.n > 0 {
		L.cur = int32(src.head) + 1
	}
}

// next yields the level's next candidate fact id. Both candidate
// sources enumerate facts in insertion order — extents are appended to
// and posting chains are tail-linked by Add — so fact ids are strictly
// increasing and the first candidate at or beyond limit exhausts the
// level: the bound is a single compare instead of a filter.
func (L *matchLevel) next(in *Instance, limit FactID) (FactID, bool) {
	if L.src.list != nil {
		if L.pos < len(L.src.list) {
			f := L.src.list[L.pos]
			if f >= limit {
				return 0, false
			}
			L.pos++
			return f, true
		}
		return 0, false
	}
	if L.cur == 0 {
		return 0, false
	}
	f := FactID(L.cur - 1)
	if f >= limit {
		return 0, false
	}
	L.cur = in.next[in.facts.offs[f]+L.src.pos]
	return f, true
}

// prepare sizes the scratch for the pattern and returns the binding slice
// reset to all-unbound.
func (sc *MatchScratch) prepare(p *Pattern) []TermID {
	if cap(sc.binding) < p.NumVars {
		sc.binding = make([]TermID, p.NumVars)
	}
	if len(sc.levels) < len(p.Atoms) {
		sc.levels = append(sc.levels, make([]matchLevel, len(p.Atoms)-len(sc.levels))...)
	}
	b := sc.binding[:p.NumVars]
	for i := range b {
		b[i] = NoTerm
	}
	return b
}

// matchAtomInto unifies the pattern atom with a fact's arguments under
// the current binding. Variables newly bound are recorded in *undo
// (reset first) for backtracking; on failure the binding is restored and
// false returned.
//
//chaselint:hotpath
func matchAtomInto(pa *PatternAtom, args []TermID, binding []TermID, undo *[]int32) bool {
	u := (*undo)[:0]
	for i, s := range pa.Args {
		t := args[i]
		if !s.IsVar {
			if s.Term != t {
				undoBinding(binding, u)
				*undo = u
				return false
			}
			continue
		}
		if b := binding[s.Var]; b != NoTerm {
			if b != t {
				undoBinding(binding, u)
				*undo = u
				return false
			}
			continue
		}
		binding[s.Var] = t
		u = append(u, int32(s.Var))
	}
	*undo = u
	return true
}

func undoBinding(binding []TermID, bound []int32) {
	for _, v := range bound {
		binding[v] = NoTerm
	}
}

// candSource returns the candidate source for a pattern atom under the
// current binding, choosing the most selective available access path: the
// shortest (pred, pos, term) index chain among the ground argument
// positions of indexed columns, else the full predicate extent. A ground
// position of an unindexed column is left to the other source, which
// holds every fact matching it. Allocation-free.
//
//chaselint:hotpath
func (in *Instance) candSource(pa *PatternAtom, binding []TermID) candSrc {
	ext := in.byPred[pa.Pred]
	best := candSrc{list: ext, n: int32(len(ext))}
	usedIndex := false
	col := in.preds[pa.Pred].col
	for i, s := range pa.Args {
		if !in.indexed[col+int32(i)] {
			continue
		}
		var t TermID = NoTerm
		if !s.IsVar {
			t = s.Term
		} else if binding[s.Var] != NoTerm {
			t = binding[s.Var]
		}
		if t != NoTerm {
			ref, ok := in.posting(pa.Pred, int32(i), t)
			if !ok {
				return candSrc{} // no fact matches this ground position
			}
			if !usedIndex || ref.count < best.n {
				best = candSrc{head: ref.head, pos: int32(i), n: ref.count}
				usedIndex = true
			}
		}
	}
	return best
}

// runPlan enumerates matches of the ordered atoms, extending binding,
// with an iterative backtracking loop over per-level candidate cursors.
// It reports whether the enumeration ran to completion. A nil yield is
// the allocation-free existence check: the enumeration "stops" (returns
// false) at the first complete match. Facts with id >= limit are
// invisible to the enumeration; every caller passes the instance size
// (no fact is ever excluded, and candidate sources are monotone in fact
// id, so the bound costs one compare per candidate).
//
//chaselint:hotpath
func (in *Instance) runPlan(p *Pattern, order []int32, sc *MatchScratch, binding []TermID, limit FactID, yield func([]TermID) bool) bool {
	n := len(order)
	if n == 0 {
		if yield == nil {
			return false
		}
		return yield(binding)
	}
	levels := sc.levels[:n]
	lvl := 0
	levels[0].start(in.candSource(&p.Atoms[order[0]], binding))
	for {
		L := &levels[lvl]
		descended := false
		for {
			fid, ok := L.next(in, limit)
			if !ok {
				break
			}
			if !matchAtomInto(&p.Atoms[order[lvl]], in.facts.Tuple(int32(fid)), binding, &L.undo) {
				continue
			}
			if lvl+1 == n {
				if yield == nil || !yield(binding) {
					return false
				}
				undoBinding(binding, L.undo)
				continue
			}
			lvl++
			levels[lvl].start(in.candSource(&p.Atoms[order[lvl]], binding))
			descended = true
			break
		}
		if descended {
			continue
		}
		if lvl == 0 {
			return true
		}
		lvl--
		undoBinding(binding, levels[lvl].undo)
	}
}

func checkInitial(p *Pattern, initial []TermID) {
	if len(initial) > p.NumVars {
		panic(fmt.Sprintf("instance: FindHoms initial binding has %d terms but the pattern has %d variables",
			len(initial), p.NumVars))
	}
}

// FindHomsWith enumerates every homomorphism from the pattern into the
// instance using the caller's scratch, extending the initial binding
// (pass nil for an unconstrained search; an initial binding longer than
// p.NumVars panics). The callback receives the complete binding (indexed
// by pattern variable); it must not retain the slice. Returning false
// stops the enumeration. FindHomsWith reports whether the enumeration ran
// to completion (true) or was stopped by the callback (false).
//
// Join order: the pattern's precompiled plan — atoms ordered by
// selectivity class — with the access path per level (index posting list
// vs full extent) still chosen at run time against the live binding.
//
//chaselint:hotpath
func (in *Instance) FindHomsWith(sc *MatchScratch, p *Pattern, initial []TermID, yield func(binding []TermID) bool) bool {
	checkInitial(p, initial)
	p.Compile()
	binding := sc.prepare(p)
	copy(binding, initial)
	return in.runPlan(p, p.plans[0], sc, binding, FactID(in.facts.Len()), yield)
}

// FindHoms is FindHomsWith with a one-shot scratch. Prefer FindHomsWith
// on hot paths.
func (in *Instance) FindHoms(p *Pattern, initial []TermID, yield func(binding []TermID) bool) bool {
	var sc MatchScratch
	return in.FindHomsWith(&sc, p, initial, yield)
}

// FindHomsAnchoredWith enumerates homomorphisms in which the pattern atom
// at index anchor is mapped exactly to the fact with id anchorFact. This
// is the delta-matching primitive used by the chase engines: when a fact
// is newly derived, only homomorphisms using it need to be discovered.
//
//chaselint:hotpath
func (in *Instance) FindHomsAnchoredWith(sc *MatchScratch, p *Pattern, anchor int, anchorFact FactID, yield func(binding []TermID) bool) bool {
	p.Compile()
	binding := sc.prepare(p)
	if !matchAtomInto(&p.Atoms[anchor], in.facts.Tuple(int32(anchorFact)), binding, &sc.anchor) {
		return true
	}
	return in.runPlan(p, p.plans[1+anchor], sc, binding, FactID(in.facts.Len()), yield)
}

// FindHomsAnchored is FindHomsAnchoredWith with a one-shot scratch.
func (in *Instance) FindHomsAnchored(p *Pattern, anchor int, anchorFact FactID, yield func(binding []TermID) bool) bool {
	var sc MatchScratch
	return in.FindHomsAnchoredWith(&sc, p, anchor, anchorFact, yield)
}

// CountHoms returns the number of homomorphisms from the pattern into the
// instance.
func (in *Instance) CountHoms(p *Pattern) int {
	n := 0
	in.FindHoms(p, nil, func([]TermID) bool { n++; return true })
	return n
}

// HasHomWith reports whether at least one homomorphism extending the
// initial binding exists, using the caller's scratch. Allocation-free.
//
//chaselint:hotpath
func (in *Instance) HasHomWith(sc *MatchScratch, p *Pattern, initial []TermID) bool {
	checkInitial(p, initial)
	p.Compile()
	binding := sc.prepare(p)
	copy(binding, initial)
	return !in.runPlan(p, p.plans[0], sc, binding, FactID(in.facts.Len()), nil)
}

// HasHom is HasHomWith with a one-shot scratch.
func (in *Instance) HasHom(p *Pattern, initial []TermID) bool {
	var sc MatchScratch
	return in.HasHomWith(&sc, p, initial)
}
