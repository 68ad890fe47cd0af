package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"chaseterm/internal/critical"
	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
)

// ---------------------------------------------------------------------------
// DecideGuardedContext: the CT^? ∩ G decision procedure (Theorem 4).
//
// The paper proves 2EXPTIME-completeness (EXPTIME for bounded arity) with an
// alternating algorithm running in exponential space. We implement the
// deterministic equivalent: a memoized least fixpoint over the *node types*
// of the guarded chase forest of the critical instance I*(Σ).
//
// Structure of the guarded Skolem chase of I*. Every trigger (σ, h) has a
// guard atom containing all body variables, so the whole body image lies
// within terms(h(guard)) ∪ consts. Organize trigger applications into a
// forest: the node of a trigger is attached below the node that created its
// guard atom. A node ν owns
//
//	universe(ν) = consts ∪ inherited nulls (frontier values passed down)
//	              ∪ fresh nulls (Skolem terms invented at ν),
//	cloud(ν)    = every chase atom whose terms lie inside universe(ν),
//	fired(ν)    = every (rule, frontier-tuple) record over universe(ν)
//	              fired at ν or an ancestor.
//
// Two flows make cloud(ν) a mutual fixpoint rather than a top-down
// computation: atoms flow DOWN (a child inherits the parent's atoms over
// the passed-down terms) and UP (a descendant can derive an atom entirely
// over inherited terms — e.g. from a head atom that projects away the fresh
// values — which then belongs to every ancestor universe containing those
// terms). The fixpoint below iterates Sat(·) until both flows stabilize;
// the provenance argument for its correctness is:
//
//	every chase atom β with terms(β) ⊆ universe(ν) ends up in cloud(ν).
//	Proof sketch: let D be the birth node of the deepest term of β; all
//	terms of β lie in universe(D) (terms only travel down tree edges, so
//	anything in a descendant universe passed through D). β is derived in
//	the subtree of D and returns to D hop by hop (each intermediate
//	universe contains terms(β) because the terms travelled through it),
//	then flows down to ν the same way.
//
// fired-records are the semi-oblivious dedup: a trigger is identified by
// (σ, h|frontier); the record is inherited by children as long as its terms
// survive, so the same trigger can never fire twice along one branch. (If a
// term of the tuple is dropped, the tuple can never be re-assembled below:
// fresh Skolem values are new terms.)
//
// Node types. A node's behaviour — its saturated cloud and the types of the
// children it creates — is a function of (cloud, fired) up to renaming of
// nulls. Types are therefore canonicalized and memoized. The type space is
// finite: a node has at most |consts| + 2·w terms (w the maximum arity —
// all body variables fit in the guard), so clouds and records range over a
// fixed finite universe; the count is doubly exponential in w in general
// and singly exponential for bounded arity — exactly the Theorem 4
// complexity shape.
//
// Decision. Build the "creates child of type" graph over types reachable
// from the root type (universe = consts, cloud = I*, fired = ∅) at the
// global fixpoint:
//
//	Σ ∉ CT^so  ⟺  that graph has a cycle.
//
// (⇐) Unfolding a cycle yields an infinite abstract branch; along a branch
// every fired trigger's identity is new (records are inherited), and the
// node-local null slots map injectively to real terms, so the real chase
// fires infinitely many distinct triggers. (⇒) If the real chase is
// infinite, its forest — finitely branching, since each node's cloud is
// finite — has an infinite branch (König); the branch's node types live in
// a finite space, so some type reaches itself: a cycle. The abstraction
// neither invents atoms (clouds equal the real atom sets over each
// universe) nor loses them (provenance argument above), so abstract and
// real branches correspond.
//
// CT^o is decided on aux(Σ) (package critical): the aux-atom transformation
// turns every body variable into a frontier variable, making semi-oblivious
// trigger identity coincide with oblivious identity, and it preserves
// guardedness. The caller (the guarded-exact portfolio rung, or the façade
// for a fixed database) performs the transform; the procedure here is the
// CT^so core.
//
// Representation. Node-local ids are instance.TermID values: 0..nc-1 name
// the constants, nc.. the node's nulls. A node's cloud and its fired
// records are instance.TupleSets (tag = predicate, resp. rule). A node type
// is interned to a dense id through one TupleSet over its encoded canonical
// seed, so the fixpoint's tables are slices indexed by type id.
//
// Imperfect canonicalization is sound: if two isomorphic types receive
// different keys the type space merely grows (it stays finite, since a key
// is a function of the seed and seeds range over the atoms and records of
// a bounded universe), so both directions of the equivalence above
// survive; we therefore cap the permutation search used for canonical null
// naming without risking wrong answers.
// ---------------------------------------------------------------------------

const guardedMaxPerm = 5040 // 7! — cap on canonicalization permutations

type gSlot struct {
	isVar bool
	v     int             // variable index
	c     instance.TermID // constant id
}

type gHeadSlot struct {
	kind int // 0 frontier index, 1 existential index, 2 constant id
	idx  int
}

type gPatAtom struct {
	pred  int32
	slots []gSlot
}

type gHeadAtom struct {
	pred  int32
	slots []gHeadSlot
	fresh bool // some slot holds an invented value
}

type gRule struct {
	idx      int32
	body     []gPatAtom
	nvars    int
	frontier []int // variable indexes, frontier order
	nExist   int
	head     []gHeadAtom
}

// gCloud is a node's atom set (tag = predicate) with each predicate's
// member ids in insertion order, for matching.
type gCloud struct {
	set    instance.TupleSet
	byPred [][]int32
}

func (c *gCloud) add(pred int32, args []instance.TermID) bool {
	id, isNew := c.set.Insert(pred, args)
	if isNew {
		c.byPred[pred] = append(c.byPred[pred], id)
	}
	return isNew
}

// gSeed is the creation state of a node: the number of null slots, the
// atoms (tag = predicate) and the inherited fired records (tag = rule),
// all in node-local ids.
type gSeed struct {
	nulls int
	atoms instance.TupleSet
	recs  instance.TupleSet
}

// satVal is the memoized saturation of a node type.
type satVal struct {
	cloud    *gCloud
	fired    *instance.TupleSet
	children []int32 // child types (latest computation)
}

type guardedDecider struct {
	rules     []*gRule
	npred     int
	predName  []string
	nc        int // constants: 0..nc-1
	constName []string
	opt       Options
	// types interns node types: the member id is the type id, the tag the
	// null count, the tuple the encoded canonical seed (see canonicalize).
	types instance.TupleSet
	cache []*satVal // by type id; nil until first saturated
	root  int32

	// Scratch reused across calls; the decider is single-goroutine.
	sat     saturation
	canon   canonScratch
	toChild []instance.TermID // parent id -> child id while spawning
	backMap []instance.TermID // child canonical id -> parent id
	args    []instance.TermID

	// ctx/done carry the run's cancellation signal; the fixpoint loops
	// poll done at node-type granularity.
	ctx  context.Context
	done <-chan struct{}
}

// canceled polls the decider's context without blocking.
func (d *guardedDecider) canceled() error { return pollDone(d.ctx, d.done) }

// DecideGuardedContext decides CT^so membership for a guarded rule set:
// the node forest is rooted at the critical instance, so the verdict
// quantifies over all databases. For CT^o, apply the aux-atom
// transformation first (the guarded-exact portfolio rung and the façade
// do this automatically). The global and per-node fixpoint loops poll
// the context, so a cancellation surfaces as ctx.Err() long before the
// node-type budget is reached.
func DecideGuardedContext(ctx context.Context, rs *logic.RuleSet, opt Options) (*Verdict, error) {
	return decideGuardedSeeded(ctx, rs, nil, opt)
}

// DecideGuardedOnContext decides whether the semi-oblivious chase of
// the GIVEN database under the guarded rule set terminates — the
// fixed-database variant. The node-forest machinery never relied on the
// root being the critical instance, only on it being ground, so rooting
// it at the database decides termination for exactly that input (an
// extension beyond the paper's all-instance theorem).
func DecideGuardedOnContext(ctx context.Context, rs *logic.RuleSet, db []logic.Atom, opt Options) (*Verdict, error) {
	for _, a := range db {
		if !a.IsGround() {
			return nil, fmt.Errorf("core: database atom %s is not ground", a)
		}
	}
	if db == nil {
		db = []logic.Atom{}
	}
	return decideGuardedSeeded(ctx, rs, db, opt)
}

// decideGuardedSeeded runs the node-type fixpoint rooted at the ground
// database db; a nil db means the critical instance.
func decideGuardedSeeded(ctx context.Context, rs *logic.RuleSet, db []logic.Atom, opt Options) (*Verdict, error) {
	opt = opt.withDefaults()
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	for i, r := range rs.Rules {
		if !r.IsGuarded() {
			return nil, fmt.Errorf("core: rule %d (%s) is not guarded", i, r)
		}
	}
	// Uniform contract: an already-dead context fails the decision up
	// front rather than depending on the fixpoint loop iterating.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if db == nil {
		db = critical.Facts(rs)
	}
	d := newGuardedDecider(ctx, rs, db, opt)

	// Global fixpoint: recompute the saturation of every registered type
	// until nothing changes. Types registered during a round are
	// saturated in the next one.
	for {
		changed := false
		before := d.types.Len()
		for id := int32(0); int(id) < before; id++ {
			if err := d.canceled(); err != nil {
				return nil, err
			}
			v, err := d.computeSat(id)
			if err != nil {
				return nil, err
			}
			if d.merge(id, v) {
				changed = true
			}
		}
		if !changed && d.types.Len() == before {
			break
		}
	}
	return d.verdict(), nil
}

// newGuardedDecider compiles the rules over dense predicate, constant and
// variable ids and interns the root type: the database as a null-free
// seed.
func newGuardedDecider(ctx context.Context, rs *logic.RuleSet, db []logic.Atom, opt Options) *guardedDecider {
	d := &guardedDecider{opt: opt, ctx: ctx, done: ctx.Done()}
	predID := make(map[string]int32)
	addPred := func(name string) int32 {
		if id, ok := predID[name]; ok {
			return id
		}
		id := int32(len(d.predName))
		predID[name] = id
		d.predName = append(d.predName, name)
		return id
	}
	constID := make(map[string]instance.TermID)
	addConst := func(name string) instance.TermID {
		if id, ok := constID[name]; ok {
			return id
		}
		id := instance.TermID(len(d.constName))
		constID[name] = id
		d.constName = append(d.constName, name)
		return id
	}
	for _, p := range rs.Schema() {
		addPred(p.Name)
	}
	root := &gSeed{}
	for _, a := range db {
		args := d.args[:0]
		for _, t := range a.Args {
			args = append(args, addConst(string(t.(logic.Constant))))
		}
		d.args = args
		root.atoms.Insert(addPred(a.Pred), args)
	}
	for _, c := range rs.Constants() {
		addConst(string(c))
	}
	d.npred = len(d.predName)
	d.nc = len(d.constName)

	maxNulls, maxVars := 0, 0
	for i, r := range rs.Rules {
		gr := &gRule{idx: int32(i)}
		varIdx := make(map[logic.Variable]int)
		vID := func(v logic.Variable) int {
			if id, ok := varIdx[v]; ok {
				return id
			}
			id := gr.nvars
			varIdx[v] = id
			gr.nvars++
			return id
		}
		for _, a := range r.Body {
			pa := gPatAtom{pred: predID[a.Pred]}
			for _, t := range a.Args {
				switch t := t.(type) {
				case logic.Variable:
					pa.slots = append(pa.slots, gSlot{isVar: true, v: vID(t)})
				case logic.Constant:
					pa.slots = append(pa.slots, gSlot{c: constID[string(t)]})
				}
			}
			gr.body = append(gr.body, pa)
		}
		for _, v := range r.Frontier() {
			gr.frontier = append(gr.frontier, varIdx[v])
		}
		ex := r.Existentials()
		gr.nExist = len(ex)
		exIdx := make(map[logic.Variable]int)
		for j, z := range ex {
			exIdx[z] = j
		}
		frIdx := make(map[logic.Variable]int)
		for j, v := range r.Frontier() {
			frIdx[v] = j
		}
		for _, a := range r.Head {
			ha := gHeadAtom{pred: predID[a.Pred]}
			for _, t := range a.Args {
				switch t := t.(type) {
				case logic.Variable:
					if j, ok := frIdx[t]; ok {
						ha.slots = append(ha.slots, gHeadSlot{kind: 0, idx: j})
					} else {
						ha.slots = append(ha.slots, gHeadSlot{kind: 1, idx: exIdx[t]})
						ha.fresh = true
					}
				case logic.Constant:
					ha.slots = append(ha.slots, gHeadSlot{kind: 2, idx: int(constID[string(t)])})
				}
			}
			gr.head = append(gr.head, ha)
		}
		d.rules = append(d.rules, gr)
		maxNulls = max(maxNulls, len(gr.frontier)+gr.nExist)
		maxVars = max(maxVars, gr.nvars)
	}

	// A node's universe holds at most maxNulls nulls: a child inherits
	// only frontier values and adds one null per existential.
	d.toChild = make([]instance.TermID, d.nc+maxNulls)
	for i := 0; i < d.nc; i++ {
		d.toChild[i] = instance.TermID(i)
	}
	d.sat.binding = slices.Repeat([]instance.TermID{instance.NoTerm}, maxVars)
	d.sat.lens = make([]int, d.npred)
	d.root, _ = d.canonicalize(root)
	return d
}

// merge stores a newly computed saturation; children are replaced by the
// latest set (stale child types must not linger: reachability uses only
// current edges). It reports whether anything grew or changed.
func (d *guardedDecider) merge(id int32, v *satVal) bool {
	old := d.cache[id]
	d.cache[id] = v
	if old == nil {
		return true
	}
	return !subset(&v.cloud.set, &old.cloud.set) || !subset(v.fired, old.fired) ||
		!slices.Equal(v.children, old.children)
}

// subset reports whether every member of a is a member of b.
func subset(a, b *instance.TupleSet) bool {
	for id := int32(0); int(id) < a.Len(); id++ {
		if !b.Contains(a.Tag(id), a.Tuple(id)) {
			return false
		}
	}
	return true
}

// saturation is the working state of one computeSat call. The matching
// scratch (binding, trail, lens, tuple, args) outlives the call.
type saturation struct {
	cloud      *gCloud
	fired      *instance.TupleSet
	exTriggers []int32 // fired ids of existential-rule triggers fired here
	changed    bool

	rule    *gRule
	binding []instance.TermID // by variable; NoTerm = unbound (all, between matches)
	trail   []int             // variables bound by the current match, for undo
	lens    []int             // per-predicate extent sizes when the rule started
	tuple   []instance.TermID
	args    []instance.TermID
}

// computeSat runs the local saturation of one node type using the current
// cache for child lookups.
//
// Two-level structure: the inner loop fires every applicable trigger (full
// rules extend the cloud directly; existential rules only record the
// trigger and add their invention-free head atoms). When the inner loop
// stabilizes, children are (re)built from the *final* cloud and records —
// so a child's inherited state reflects everything the parent will ever
// know at the current global round — and their cached returns are merged
// back. If the returns grew the cloud, the outer loop repeats, which also
// rebuilds the children with the fuller inherited state.
func (d *guardedDecider) computeSat(id int32) (*satVal, error) {
	cloud := &gCloud{byPred: make([][]int32, d.npred)}
	fired := new(instance.TupleSet)
	atoms, recs := splitSeed(d.types.Tuple(id))
	for len(atoms) > 0 {
		tag, args, rest := nextItem(atoms)
		cloud.add(tag, args)
		atoms = rest
	}
	for len(recs) > 0 {
		tag, args, rest := nextItem(recs)
		fired.Insert(tag, args)
		recs = rest
	}
	s := &d.sat
	s.cloud, s.fired, s.exTriggers = cloud, fired, s.exTriggers[:0]
	var children []int32

	for {
		// Inner fixpoint: fire triggers. Each rule matches against the
		// extents as they stood when it started.
		for {
			if err := d.canceled(); err != nil {
				return nil, err
			}
			s.changed = false
			for _, gr := range d.rules {
				for p := range s.lens {
					s.lens[p] = len(cloud.byPred[p])
				}
				s.rule = gr
				s.match(0)
			}
			if !s.changed {
				break
			}
		}
		// Spawn/refresh children from the final local state; merge returns.
		children = children[:0]
		progress := false
		for _, rid := range s.exTriggers {
			child, err := d.spawnChild(d.rules[fired.Tag(rid)], fired.Tuple(rid), cloud, fired)
			if err != nil {
				return nil, err
			}
			if !slices.Contains(children, child) {
				children = append(children, child)
			}
			if d.applyReturns(child, cloud) {
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return &satVal{cloud: cloud, fired: fired, children: children}, nil
}

// match extends the current binding over body atoms ai.. of the rule and
// fires every complete match.
func (s *saturation) match(ai int) {
	gr := s.rule
	if ai == len(gr.body) {
		s.fire()
		return
	}
	pa := &gr.body[ai]
	for _, aid := range s.cloud.byPred[pa.pred][:s.lens[pa.pred]] {
		mark := len(s.trail)
		if s.bind(pa, s.cloud.set.Tuple(aid)) {
			s.match(ai + 1)
		}
		for _, v := range s.trail[mark:] {
			s.binding[v] = instance.NoTerm
		}
		s.trail = s.trail[:mark]
	}
}

// bind unifies a body atom with a cloud atom, recording new bindings on
// the trail.
func (s *saturation) bind(pa *gPatAtom, cand []instance.TermID) bool {
	for i, sl := range pa.slots {
		t := cand[i]
		if !sl.isVar {
			if sl.c != t {
				return false
			}
			continue
		}
		if b := s.binding[sl.v]; b != instance.NoTerm {
			if b != t {
				return false
			}
			continue
		}
		s.binding[sl.v] = t
		s.trail = append(s.trail, sl.v)
	}
	return true
}

// fire records the trigger of a complete match unless it already fired
// here or at an ancestor.
func (s *saturation) fire() {
	gr := s.rule
	s.tuple = s.tuple[:0]
	for _, v := range gr.frontier {
		s.tuple = append(s.tuple, s.binding[v])
	}
	rid, isNew := s.fired.Insert(gr.idx, s.tuple)
	if !isNew {
		return
	}
	s.changed = true
	if gr.nExist > 0 {
		s.exTriggers = append(s.exTriggers, rid)
	}
	// Head atoms without invented values live in this universe regardless
	// of the rule kind.
	for i := range gr.head {
		ha := &gr.head[i]
		if ha.fresh {
			continue
		}
		s.args = s.args[:0]
		for _, sl := range ha.slots {
			if sl.kind == 0 {
				s.args = append(s.args, s.tuple[sl.idx])
			} else {
				s.args = append(s.args, instance.TermID(sl.idx))
			}
		}
		s.cloud.add(ha.pred, s.args)
	}
}

// spawnChild builds and interns the child node type created by firing
// (rule, tuple) and leaves in d.backMap the map from the child's canonical
// ids back to parent ids, for reading its returns.
func (d *guardedDecider) spawnChild(gr *gRule, tuple []instance.TermID, cloud *gCloud, fired *instance.TupleSet) (int32, error) {
	// Local child ids: constants unchanged; inherited nulls = null values
	// among the frontier tuple, renumbered in order of first occurrence;
	// fresh slots appended.
	nc := instance.TermID(d.nc)
	toChild := d.toChild
	for i := nc; int(i) < len(toChild); i++ {
		toChild[i] = instance.NoTerm
	}
	childNulls := instance.TermID(0)
	for _, t := range tuple {
		if toChild[t] == instance.NoTerm {
			toChild[t] = nc + childNulls
			childNulls++
		}
	}
	freshBase := nc + childNulls
	seed := &gSeed{nulls: int(childNulls) + gr.nExist}

	// New head atoms.
	for _, ha := range gr.head {
		args := d.args[:0]
		for _, s := range ha.slots {
			switch s.kind {
			case 0:
				args = append(args, toChild[tuple[s.idx]])
			case 1:
				args = append(args, freshBase+instance.TermID(s.idx))
			case 2:
				args = append(args, instance.TermID(s.idx))
			}
		}
		d.args = args
		seed.atoms.Insert(ha.pred, args)
	}
	// Inherited atoms and fired records (including the creating trigger's
	// own record): those entirely over constants and inherited nulls.
	d.inherit(&seed.atoms, &cloud.set, toChild)
	d.inherit(&seed.recs, fired, toChild)

	id, perm := d.canonicalize(seed)
	if d.types.Len() > d.opt.MaxNodeTypes {
		return 0, fmt.Errorf("core: guarded node-type budget exceeded (%d types)", d.types.Len())
	}
	// backMap: constants identity; inherited nulls via the inverse of
	// toChild; fresh nulls NoTerm.
	n := d.nc + seed.nulls
	d.backMap = slices.Grow(d.backMap[:0], n)[:n]
	for i := range d.backMap {
		d.backMap[i] = instance.NoTerm
		if i < d.nc {
			d.backMap[i] = instance.TermID(i)
		}
	}
	for p := nc; int(p) < len(toChild); p++ {
		if c := toChild[p]; c != instance.NoTerm {
			d.backMap[perm[c]] = p
		}
	}
	return id, nil
}

// inherit inserts into dst every member of src whose terms all map
// through m (NoTerm marks an unmapped id), renamed.
func (d *guardedDecider) inherit(dst, src *instance.TupleSet, m []instance.TermID) {
	for id := int32(0); int(id) < src.Len(); id++ {
		if args, ok := d.mapTuple(m, src.Tuple(id)); ok {
			dst.Insert(src.Tag(id), args)
		}
	}
}

// mapTuple renames tuple through m into the d.args scratch, reporting
// false if some term is unmapped.
func (d *guardedDecider) mapTuple(m, tuple []instance.TermID) ([]instance.TermID, bool) {
	d.args = d.args[:0]
	for _, t := range tuple {
		if m[t] == instance.NoTerm {
			return nil, false
		}
		d.args = append(d.args, m[t])
	}
	return d.args, true
}

// applyReturns copies the child's saturated atoms that are entirely over
// inherited terms back into the parent's cloud, through d.backMap. It
// reports whether anything was new.
//
// Fired records deliberately do NOT flow upward. The record set of a node
// must be exactly "fired at this node or an ancestor": that is what makes
// a repeated node type on a branch a sound witness of infinitely many
// distinct triggers. Returning a descendant's record to the parent would
// be re-inherited by the re-spawned child, which would then skip its own
// trigger and silently lose the subtree below it (a completeness bug found
// by the randomized Theorem 4 cross-validation). The only cost of not
// returning records is that a trigger whose body image lies entirely
// within two incomparable universes may be explored twice — harmless for
// termination detection, since both copies unfold isomorphically.
func (d *guardedDecider) applyReturns(child int32, cloud *gCloud) bool {
	v := d.cache[child]
	if v == nil {
		return false
	}
	progress := false
	set := &v.cloud.set
	for id := int32(0); int(id) < set.Len(); id++ {
		if args, ok := d.mapTuple(d.backMap, set.Tuple(id)); ok && cloud.add(set.Tag(id), args) {
			progress = true
		}
	}
	return progress
}

// canonScratch holds canonicalize's reusable buffers.
type canonScratch struct {
	nc         instance.TermID
	sigOff     []int32 // per null: bounds of its signature in sig
	sig        []int64 // concatenated sorted occurrence descriptors
	cursor     []int32 // per null: next free slot of its row in sig
	order      []instance.TermID
	groups     []int // bounds of equal-signature runs in order
	perm       []instance.TermID
	bestPerm   []instance.TermID
	items      []instance.TermID // renamed members, each tag, len, args…
	itemOff    []int32
	sorted     []int32
	cand, best []instance.TermID
}

// canonicalize renames the null slots of a seed to a canonical order,
// interns the result as a node type and returns the type id with the
// applied renaming: perm maps the seed's ids to canonical ids (the
// identity on constants) and is valid until the next call.
//
// A null's signature is the sorted list of its occurrence descriptors
// (predicate or rule, position). Nulls are ordered by signature; every
// order of each equal-signature group is tried, up to guardedMaxPerm
// candidates in all, and the smallest encoding wins. Above the cap the
// signature-sorted order stands.
//
// The encoding is the atom section's length followed by the atoms and
// then the records, each section sorted, each member written as tag,
// length, terms.
func (d *guardedDecider) canonicalize(seed *gSeed) (int32, []instance.TermID) {
	c := &d.canon
	c.nc = instance.TermID(d.nc)
	n := d.nc + seed.nulls

	// Signatures: count each null's occurrences, lay the rows out, fill
	// and sort them.
	c.sigOff = slices.Grow(c.sigOff[:0], seed.nulls+1)[:seed.nulls+1]
	clear(c.sigOff)
	c.countNulls(&seed.atoms)
	c.countNulls(&seed.recs)
	for i := 1; i < len(c.sigOff); i++ {
		c.sigOff[i] += c.sigOff[i-1]
	}
	c.sig = slices.Grow(c.sig[:0], int(c.sigOff[seed.nulls]))[:c.sigOff[seed.nulls]]
	c.cursor = append(c.cursor[:0], c.sigOff[:seed.nulls]...)
	c.describe(&seed.atoms, 0)
	c.describe(&seed.recs, int64(d.npred))
	c.order = c.order[:0]
	for t := c.nc; int(t) < n; t++ {
		slices.Sort(c.sigOf(t))
		c.order = append(c.order, t)
	}

	// Order nulls by signature and find the equal-signature groups.
	slices.SortStableFunc(c.order, func(a, b instance.TermID) int { return slices.Compare(c.sigOf(a), c.sigOf(b)) })
	c.groups = append(c.groups[:0], 0)
	permCount := 1
	for i := 1; i <= len(c.order); i++ {
		if i < len(c.order) && slices.Equal(c.sigOf(c.order[i]), c.sigOf(c.order[i-1])) {
			continue
		}
		for f := 2; f <= i-c.groups[len(c.groups)-1] && permCount <= guardedMaxPerm; f++ {
			permCount *= f
		}
		c.groups = append(c.groups, i)
	}

	c.perm = slices.Grow(c.perm[:0], n)[:n]
	c.bestPerm = slices.Grow(c.bestPerm[:0], n)[:n]
	for i := instance.TermID(0); i < c.nc; i++ {
		c.perm[i] = i
	}
	for first := true; ; first = false {
		for rank, t := range c.order {
			c.perm[t] = c.nc + instance.TermID(rank)
		}
		c.cand = append(c.cand[:0], 0)
		c.cand = c.appendSorted(c.cand, &seed.atoms)
		c.cand[0] = instance.TermID(len(c.cand) - 1)
		c.cand = c.appendSorted(c.cand, &seed.recs)
		if first || slices.Compare(c.cand, c.best) < 0 {
			c.cand, c.best = c.best, c.cand
			copy(c.bestPerm, c.perm)
		}
		if permCount > guardedMaxPerm || !c.nextOrder() {
			break
		}
	}

	id, isNew := d.types.Insert(int32(seed.nulls), c.best)
	if isNew {
		d.cache = append(d.cache, nil)
	}
	return id, c.bestPerm
}

// sigOf returns null t's signature row.
func (c *canonScratch) sigOf(t instance.TermID) []int64 {
	return c.sig[c.sigOff[t-c.nc]:c.sigOff[t-c.nc+1]]
}

// countNulls adds the null occurrences of set's members to the row
// bounds, shifted by one for the prefix sum.
func (c *canonScratch) countNulls(set *instance.TupleSet) {
	for id := int32(0); int(id) < set.Len(); id++ {
		for _, t := range set.Tuple(id) {
			if t >= c.nc {
				c.sigOff[t-c.nc+1]++
			}
		}
	}
}

// describe writes the occurrence descriptor (base+tag)<<32 | position of
// every null occurrence in set's members into the null's row.
func (c *canonScratch) describe(set *instance.TupleSet, base int64) {
	for id := int32(0); int(id) < set.Len(); id++ {
		tag := base + int64(set.Tag(id))
		for pos, t := range set.Tuple(id) {
			if t >= c.nc {
				c.sig[c.cursor[t-c.nc]] = tag<<32 | int64(pos)
				c.cursor[t-c.nc]++
			}
		}
	}
}

// appendSorted appends the members of set, renamed by c.perm, to dst in
// sorted order.
func (c *canonScratch) appendSorted(dst []instance.TermID, set *instance.TupleSet) []instance.TermID {
	c.items, c.itemOff, c.sorted = c.items[:0], c.itemOff[:0], c.sorted[:0]
	for id := int32(0); int(id) < set.Len(); id++ {
		tuple := set.Tuple(id)
		c.itemOff = append(c.itemOff, int32(len(c.items)))
		c.items = append(c.items, instance.TermID(set.Tag(id)), instance.TermID(len(tuple)))
		for _, t := range tuple {
			c.items = append(c.items, c.perm[t])
		}
		c.sorted = append(c.sorted, id)
	}
	c.itemOff = append(c.itemOff, int32(len(c.items)))
	item := func(i int32) []instance.TermID { return c.items[c.itemOff[i]:c.itemOff[i+1]] }
	slices.SortFunc(c.sorted, func(a, b int32) int { return slices.Compare(item(a), item(b)) })
	for _, i := range c.sorted {
		dst = append(dst, item(i)...)
	}
	return dst
}

// nextOrder advances c.order to the next combination of within-group
// orders, odometer-style; it reports false once every combination has
// been visited.
func (c *canonScratch) nextOrder() bool {
	for g := len(c.groups) - 2; g >= 0; g-- {
		if nextPermutation(c.order[c.groups[g]:c.groups[g+1]]) {
			return true
		}
	}
	return false
}

// nextPermutation rearranges xs into the next lexicographic permutation.
// After the last one it restores ascending order and reports false.
func nextPermutation(xs []instance.TermID) bool {
	i := len(xs) - 2
	for i >= 0 && xs[i] >= xs[i+1] {
		i--
	}
	if i < 0 {
		slices.Reverse(xs)
		return false
	}
	j := len(xs) - 1
	for xs[j] <= xs[i] {
		j--
	}
	xs[i], xs[j] = xs[j], xs[i]
	slices.Reverse(xs[i+1:])
	return true
}

// splitSeed splits an encoded seed into its atom and record sections.
func splitSeed(enc []instance.TermID) (atoms, recs []instance.TermID) {
	n := 1 + int(enc[0])
	return enc[1:n], enc[n:]
}

// nextItem decodes the first member of an encoded section.
func nextItem(sec []instance.TermID) (tag int32, args, rest []instance.TermID) {
	n := 2 + int(sec[1])
	return int32(sec[0]), sec[2:n], sec[n:]
}

// verdict searches the child-type graph reachable from the root for a
// cycle and renders one as the non-termination witness.
func (d *guardedDecider) verdict() *Verdict {
	v := &Verdict{Answer: Terminating, Variant: VariantSemiOblivious, Method: "guarded-forest"}
	color := make([]uint8, d.types.Len()) // 0 unvisited, 1 on stack, 2 done
	var stack, cyc []int32
	var dfs func(id int32) bool
	dfs = func(id int32) bool {
		color[id] = 1
		v.NodeTypeCount++
		stack = append(stack, id)
		for _, c := range d.cache[id].children {
			switch color[c] {
			case 0:
				if dfs(c) {
					return true
				}
			case 1:
				cyc = stack[slices.Index(stack, c):]
				return true
			}
		}
		stack = stack[:len(stack)-1]
		color[id] = 2
		return false
	}
	if dfs(d.root) {
		v.Answer = NonTerminating
		var parts []string
		for _, id := range cyc {
			parts = append(parts, d.renderSeed(id))
			if len(parts) == 3 && len(cyc) > 3 {
				parts = append(parts, fmt.Sprintf("… (%d more)", len(cyc)-3))
				break
			}
		}
		v.Witness = fmt.Sprintf("pumpable node-type cycle of length %d in the guarded chase forest: %s",
			len(cyc), strings.Join(parts, " -> "))
	}
	return v
}

// renderSeed renders a node type's atoms for witnesses: constants by name,
// null slots as n0, n1, …. Inherited fired records are omitted (they gate
// behaviour but rarely aid a human reader); the atom set identifies the
// type well enough to follow the pump.
func (d *guardedDecider) renderSeed(id int32) string {
	atoms, _ := splitSeed(d.types.Tuple(id))
	var parts []string
	for len(atoms) > 0 {
		pred, args, rest := nextItem(atoms)
		atoms = rest
		if len(args) == 0 {
			parts = append(parts, d.predName[pred])
			continue
		}
		names := make([]string, len(args))
		for i, t := range args {
			if int(t) < d.nc {
				names[i] = d.constName[t]
			} else {
				names[i] = fmt.Sprintf("n%d", int(t)-d.nc)
			}
		}
		parts = append(parts, d.predName[pred]+"("+strings.Join(names, ",")+")")
	}
	out := "{" + strings.Join(parts, " ") + "}"
	if len(out) > 120 {
		out = out[:117] + "…}"
	}
	return out
}
