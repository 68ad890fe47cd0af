package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"chaseterm/internal/logic"
)

// ---------------------------------------------------------------------------
// DecideGuarded: the CT^? ∩ G decision procedure (Theorem 4).
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
// fresh Skolem values are new terms.) Records of a child whose terms are
// all inherited are also merged back into the parent, pruning duplicate
// exploration of cousins.
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
// guardedness. The caller (Decide / the façade) performs the transform; the
// procedure here is the CT^so core.
//
// Imperfect canonicalization is sound: if two isomorphic types receive
// different keys the type space merely grows (it stays finite, since keys
// are drawn from the finite encoding space), so both directions of the
// equivalence above survive; we therefore cap the permutation search used
// for canonical null naming without risking wrong answers.
// ---------------------------------------------------------------------------

const guardedMaxPerm = 5040 // 7! — cap on canonicalization permutations

type gSlot struct {
	isVar bool
	v     int // variable index
	c     int // constant id
}

type gHeadSlot struct {
	kind int // 0 frontier index, 1 existential index, 2 constant id
	idx  int
}

type gPatAtom struct {
	pred  int
	slots []gSlot
}

type gHeadAtom struct {
	pred  int
	slots []gHeadSlot
}

type gRule struct {
	src      *logic.TGD
	idx      int
	body     []gPatAtom
	nvars    int
	frontier []int // variable indexes, frontier order
	nExist   int
	head     []gHeadAtom
}

// gAtomKey encodes an atom over a node universe as a compact string —
// used only on cold canonicalization paths; the hot dedup sets below are
// integer-keyed.
func gAtomKey(pred int, args []int) string {
	b := make([]byte, 0, 2+len(args))
	b = append(b, byte(pred>>8), byte(pred))
	for _, a := range args {
		b = append(b, byte(a))
	}
	return string(b)
}

func gRecKey(rule int, tuple []int) string {
	b := make([]byte, 0, 2+len(tuple))
	b = append(b, byte(rule>>8), byte(rule))
	for _, a := range tuple {
		b = append(b, byte(a))
	}
	return string(b)
}

// intSet is an insert-only open-addressed hash set of (tag, tuple) keys
// over node-universe ids — the guarded decider's counterpart of the
// instance package's TupleSet. Member tuples live in a flat arena and
// probes compare against it directly, so membership tests (the inner-loop
// steady state of the saturation) allocate nothing.
type intSet struct {
	slots []int32 // id+1; 0 = empty
	tags  []int32
	offs  []int32 // len(tags)+1 bounds
	arena []int32
}

// The three hash helpers keep the mixing constants in one place; insert,
// contains and grow all compose them.

func intSetSeed(tag int32, n int) uint64 {
	return 0x9e3779b97f4a7c15 ^ (uint64(uint32(tag)) | uint64(n)<<32)
}

func intSetMix(h uint64, v uint32) uint64 {
	h ^= uint64(v)
	h *= 0x9e3779b185ebca87
	return h
}

func intSetFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func intSetHash(tag int32, tuple []int) uint64 {
	h := intSetSeed(tag, len(tuple))
	for _, t := range tuple {
		h = intSetMix(h, uint32(int32(t)))
	}
	return intSetFinish(h)
}

// intSetHashMem hashes a member tuple already stored in the arena.
func intSetHashMem(tag int32, mem []int32) uint64 {
	h := intSetSeed(tag, len(mem))
	for _, t := range mem {
		h = intSetMix(h, uint32(t))
	}
	return intSetFinish(h)
}

func (s *intSet) match(id int32, tag int32, tuple []int) bool {
	if s.tags[id] != tag {
		return false
	}
	mem := s.arena[s.offs[id]:s.offs[id+1]]
	if len(mem) != len(tuple) {
		return false
	}
	for i, t := range tuple {
		if mem[i] != int32(t) {
			return false
		}
	}
	return true
}

// insert adds (tag, tuple), reporting whether it was newly added.
func (s *intSet) insert(tag int, tuple []int) bool {
	if len(s.slots) == 0 {
		s.grow(32)
		s.offs = append(s.offs, 0)
	} else if len(s.tags)*4 >= len(s.slots)*3 {
		s.grow(len(s.slots) * 2)
	}
	mask := uint64(len(s.slots) - 1)
	i := intSetHash(int32(tag), tuple) & mask
	for {
		v := s.slots[i]
		if v == 0 {
			s.tags = append(s.tags, int32(tag))
			for _, t := range tuple {
				s.arena = append(s.arena, int32(t))
			}
			s.offs = append(s.offs, int32(len(s.arena)))
			s.slots[i] = int32(len(s.tags))
			return true
		}
		if s.match(v-1, int32(tag), tuple) {
			return false
		}
		i = (i + 1) & mask
	}
}

// contains reports membership of (tag, tuple) without inserting.
func (s *intSet) contains(tag int, tuple []int) bool {
	if len(s.slots) == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	i := intSetHash(int32(tag), tuple) & mask
	for {
		v := s.slots[i]
		if v == 0 {
			return false
		}
		if s.match(v-1, int32(tag), tuple) {
			return true
		}
		i = (i + 1) & mask
	}
}

func (s *intSet) grow(size int) {
	s.slots = make([]int32, size)
	mask := uint64(size - 1)
	for id := range s.tags {
		i := intSetHashMem(s.tags[id], s.arena[s.offs[id]:s.offs[id+1]]) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(id) + 1
	}
}

// gCloud is a node's atom set with a per-predicate view for matching.
type gCloud struct {
	set    intSet
	byPred [][][]int // pred -> list of arg tuples
}

func newGCloud(npred int) *gCloud {
	return &gCloud{byPred: make([][][]int, npred)}
}

func (c *gCloud) add(pred int, args []int) bool {
	if !c.set.insert(pred, args) {
		return false
	}
	own := make([]int, len(args))
	copy(own, args)
	c.byPred[pred] = append(c.byPred[pred], own)
	return true
}

// gSeed is the creation state of a node type: the number of null slots,
// the atoms, and the inherited fired records, all in local ids
// (0..nc-1 constants, nc.. nulls).
type gSeed struct {
	nulls int
	atoms []gFact // sorted canonical order not required here
	recs  []gRec
}

type gFact struct {
	pred int
	args []int
}

type gRec struct {
	rule  int
	tuple []int
}

// satVal is the memoized saturation of a node type.
type satVal struct {
	cloudSet *intSet // atom set at fixpoint (shared with the cloud that built it)
	cloud    []gFact
	recs     []gRec
	recSet   *intSet
	children []string // canonical keys of child types (latest computation)
}

type guardedDecider struct {
	rules     []*gRule
	npred     int
	predName  []string
	predArity []int
	nc        int // constants: 0..nc-1
	constName []string
	opt       Options
	cache     map[string]*satVal
	seeds     map[string]*gSeed
	rootKey   string
	maxNulls  int
	// ctx/done carry the run's cancellation signal; the fixpoint loops
	// poll done at node-type granularity.
	ctx  context.Context
	done <-chan struct{}
}

// canceled polls the decider's context without blocking.
func (d *guardedDecider) canceled() error { return pollDone(d.ctx, d.done) }

// GuardedResult carries the guarded analysis outcome.
type GuardedResult struct {
	Verdict *Verdict
}

// DecideGuardedContext decides CT^so membership for a guarded rule set:
// the node forest is rooted at the critical instance, so the verdict
// quantifies over all databases. For CT^o, apply the aux-atom
// transformation first (the guarded-exact portfolio rung and the façade
// do this automatically). The global and per-node fixpoint loops poll
// the context, so a cancellation surfaces as ctx.Err() long before the
// node-type budget is reached.
func DecideGuardedContext(ctx context.Context, rs *logic.RuleSet, opt Options) (*GuardedResult, error) {
	return decideGuardedSeeded(ctx, rs, nil, opt)
}

// DecideGuardedOnContext decides whether the semi-oblivious chase of
// the GIVEN database under the guarded rule set terminates — the
// fixed-database variant. The node-forest machinery never relied on the
// root being the critical instance, only on it being ground, so rooting
// it at the database decides termination for exactly that input (an
// extension beyond the paper's all-instance theorem).
func DecideGuardedOnContext(ctx context.Context, rs *logic.RuleSet, db []logic.Atom, opt Options) (*GuardedResult, error) {
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

func decideGuardedSeeded(ctx context.Context, rs *logic.RuleSet, db []logic.Atom, opt Options) (*GuardedResult, error) {
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
	d := &guardedDecider{
		opt:   opt,
		cache: make(map[string]*satVal),
		seeds: make(map[string]*gSeed),
		ctx:   ctx,
		done:  ctx.Done(),
	}
	if err := d.compile(rs, db); err != nil {
		return nil, err
	}
	if db == nil {
		d.buildCriticalRoot(rs)
	} else {
		d.buildRootFromDB(db)
	}

	// Global fixpoint: recompute the saturation of every registered type
	// until nothing grows. Values are monotone (unions with previous), so
	// the loop terminates within the finite type space.
	for round := 0; ; round++ {
		changed := false
		before := len(d.seeds)
		keys := make([]string, 0, len(d.seeds))
		for k := range d.seeds {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := d.canceled(); err != nil {
				return nil, err
			}
			v, err := d.computeSat(d.seeds[k])
			if err != nil {
				return nil, err
			}
			if d.merge(k, v) {
				changed = true
			}
		}
		if len(d.seeds) > d.opt.MaxNodeTypes {
			return nil, fmt.Errorf("core: guarded node-type budget exceeded (%d types)", len(d.seeds))
		}
		// Newly registered node types have not been saturated yet; another
		// round is required even if every computed value was stable.
		if len(d.seeds) != before {
			changed = true
		}
		if !changed {
			break
		}
	}

	// Reachability + cycle detection over final children edges.
	verdict := &Verdict{Answer: Terminating, Variant: VariantSemiOblivious, Method: "guarded-forest"}
	color := make(map[string]int) // 0 unvisited, 1 on stack, 2 done
	var stack []string
	var cyc []string
	var dfs func(k string) bool
	dfs = func(k string) bool {
		color[k] = 1
		stack = append(stack, k)
		if v, ok := d.cache[k]; ok {
			for _, ck := range v.children {
				switch color[ck] {
				case 0:
					if dfs(ck) {
						return true
					}
				case 1:
					// cycle: suffix of stack from ck
					for i := len(stack) - 1; i >= 0; i-- {
						cyc = append(cyc, stack[i])
						if stack[i] == ck {
							break
						}
					}
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[k] = 2
		return false
	}
	if dfs(d.rootKey) {
		verdict.Answer = NonTerminating
		var parts []string
		for i := len(cyc) - 1; i >= 0; i-- { // cyc was collected bottom-up
			parts = append(parts, d.renderSeed(d.seeds[cyc[i]]))
			if len(parts) == 3 && len(cyc) > 3 {
				parts = append(parts, fmt.Sprintf("… (%d more)", len(cyc)-3))
				break
			}
		}
		verdict.Witness = fmt.Sprintf("pumpable node-type cycle of length %d in the guarded chase forest: %s",
			len(cyc), strings.Join(parts, " -> "))
	}
	verdict.NodeTypeCount = len(color)
	return &GuardedResult{Verdict: verdict}, nil
}

func (d *guardedDecider) compile(rs *logic.RuleSet, db []logic.Atom) error {
	predID := make(map[string]int)
	addPred := func(name string, arity int) {
		if _, ok := predID[name]; ok {
			return
		}
		predID[name] = len(d.predName)
		d.predName = append(d.predName, name)
		d.predArity = append(d.predArity, arity)
	}
	for _, p := range rs.Schema() {
		addPred(p.Name, p.Arity)
	}
	for _, a := range db {
		addPred(a.Pred, len(a.Args))
	}
	d.npred = len(d.predName)
	constID := make(map[string]int)
	addConst := func(name string) int {
		if id, ok := constID[name]; ok {
			return id
		}
		id := len(d.constName)
		constID[name] = id
		d.constName = append(d.constName, name)
		return id
	}
	if db == nil {
		addConst("✶")
	}
	for _, c := range rs.Constants() {
		addConst(string(c))
	}
	for _, a := range db {
		for _, t := range a.Args {
			addConst(string(t.(logic.Constant)))
		}
	}
	d.nc = len(d.constName)

	for i, r := range rs.Rules {
		gr := &gRule{src: r, idx: i}
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
					pa.slots = append(pa.slots, gSlot{c: addConst(string(t))})
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
					}
				case logic.Constant:
					ha.slots = append(ha.slots, gHeadSlot{kind: 2, idx: addConst(string(t))})
				}
			}
			gr.head = append(gr.head, ha)
		}
		d.rules = append(d.rules, gr)
		if n := len(gr.frontier) + gr.nExist; n > d.maxNulls {
			d.maxNulls = n
		}
	}
	// Universe ids are encoded in single bytes.
	if d.nc+d.maxNulls > 250 {
		return fmt.Errorf("core: universe too large for guarded decider (%d constants + %d nulls)", d.nc, d.maxNulls)
	}
	return nil
}

// buildCriticalRoot roots the forest at the critical instance I*(Σ).
func (d *guardedDecider) buildCriticalRoot(rs *logic.RuleSet) {
	seed := &gSeed{nulls: 0}
	for p := 0; p < d.npred; p++ {
		arity := d.predArity[p]
		tuple := make([]int, arity)
		for {
			args := make([]int, arity)
			copy(args, tuple)
			seed.atoms = append(seed.atoms, gFact{pred: p, args: args})
			i := arity - 1
			for ; i >= 0; i-- {
				tuple[i]++
				if tuple[i] < d.nc {
					break
				}
				tuple[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	d.installRoot(seed)
}

// buildRootFromDB roots the forest at the given ground database.
func (d *guardedDecider) buildRootFromDB(db []logic.Atom) {
	seed := &gSeed{nulls: 0}
	predID := make(map[string]int, d.npred)
	for i, n := range d.predName {
		predID[n] = i
	}
	constID := make(map[string]int, d.nc)
	for i, n := range d.constName {
		constID[n] = i
	}
	dedup := make(map[string]bool)
	for _, a := range db {
		args := make([]int, len(a.Args))
		for i, t := range a.Args {
			args[i] = constID[string(t.(logic.Constant))]
		}
		k := gAtomKey(predID[a.Pred], args)
		if !dedup[k] {
			dedup[k] = true
			seed.atoms = append(seed.atoms, gFact{pred: predID[a.Pred], args: args})
		}
	}
	d.installRoot(seed)
}

func (d *guardedDecider) installRoot(seed *gSeed) {
	key, canonSeed := d.canonicalize(seed)
	d.rootKey = key
	d.seeds[key] = canonSeed
}

// merge unions a newly computed saturation into the cache; children are
// replaced by the latest set (stale child keys must not linger: reachability
// uses only current edges). It reports whether anything grew or changed.
func (d *guardedDecider) merge(key string, v *satVal) bool {
	old, ok := d.cache[key]
	if !ok {
		d.cache[key] = v
		return true
	}
	changed := false
	for _, f := range v.cloud {
		if !old.cloudSet.contains(f.pred, f.args) {
			changed = true
			break
		}
	}
	if !changed {
		for _, r := range v.recs {
			if !old.recSet.contains(r.rule, r.tuple) {
				changed = true
				break
			}
		}
	}
	if !changed && len(v.children) == len(old.children) {
		for i := range v.children {
			if v.children[i] != old.children[i] {
				changed = true
				break
			}
		}
	} else if !changed {
		changed = true
	}
	d.cache[key] = v
	return changed
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
func (d *guardedDecider) computeSat(seed *gSeed) (*satVal, error) {
	cloud := newGCloud(d.npred)
	for _, f := range seed.atoms {
		cloud.add(f.pred, f.args)
	}
	fired := new(intSet)
	var recs []gRec
	for _, r := range seed.recs {
		if fired.insert(r.rule, r.tuple) {
			recs = append(recs, r)
		}
	}
	var exTriggers []gRec // existential-rule triggers fired at this node
	var children []string

	for {
		// Inner fixpoint: fire triggers.
		for {
			if err := d.canceled(); err != nil {
				return nil, err
			}
			changed := false
			for _, gr := range d.rules {
				gr := gr
				snapshot := make([][][]int, d.npred)
				for p := range snapshot {
					snapshot[p] = cloud.byPred[p]
				}
				binding := make([]int, gr.nvars)
				for i := range binding {
					binding[i] = -1
				}
				var rec func(ai int)
				rec = func(ai int) {
					if ai == len(gr.body) {
						tuple := make([]int, len(gr.frontier))
						for i, v := range gr.frontier {
							tuple[i] = binding[v]
						}
						if !fired.insert(gr.idx, tuple) {
							return
						}
						recs = append(recs, gRec{rule: gr.idx, tuple: tuple})
						changed = true
						if gr.nExist > 0 {
							exTriggers = append(exTriggers, gRec{rule: gr.idx, tuple: tuple})
						}
						// Head atoms without invented values live in this
						// universe regardless of the rule kind.
						for _, ha := range gr.head {
							hasEx := false
							for _, s := range ha.slots {
								if s.kind == 1 {
									hasEx = true
									break
								}
							}
							if hasEx {
								continue
							}
							args := make([]int, len(ha.slots))
							for i, s := range ha.slots {
								switch s.kind {
								case 0:
									args[i] = tuple[s.idx]
								case 2:
									args[i] = s.idx
								}
							}
							cloud.add(ha.pred, args)
						}
						return
					}
					pa := &gr.body[ai]
					for _, cand := range snapshot[pa.pred] {
						var bound []int
						ok := true
						for i, s := range pa.slots {
							t := cand[i]
							if !s.isVar {
								if s.c != t {
									ok = false
									break
								}
								continue
							}
							if b := binding[s.v]; b != -1 {
								if b != t {
									ok = false
									break
								}
								continue
							}
							binding[s.v] = t
							bound = append(bound, s.v)
						}
						if ok {
							rec(ai + 1)
						}
						for _, v := range bound {
							binding[v] = -1
						}
					}
				}
				rec(0)
			}
			if !changed {
				break
			}
		}
		// Spawn/refresh children from the final local state; merge returns.
		children = children[:0]
		childSeen := make(map[string]bool)
		progress := false
		for _, tr := range exTriggers {
			ci, err := d.spawnChild(d.rules[tr.rule], tr.tuple, cloud, recs)
			if err != nil {
				return nil, err
			}
			if !childSeen[ci.key] {
				childSeen[ci.key] = true
				children = append(children, ci.key)
			}
			if d.applyReturns(ci, cloud) {
				progress = true
			}
		}
		if !progress {
			break
		}
	}

	v := &satVal{
		cloudSet: &cloud.set,
		recSet:   fired,
		children: children,
	}
	for p := range cloud.byPred {
		for _, args := range cloud.byPred[p] {
			v.cloud = append(v.cloud, gFact{pred: p, args: args})
		}
	}
	v.recs = recs
	return v, nil
}

// childInfo caches the mapping needed to interpret a child's returns.
type childInfo struct {
	key string
	// backMap maps canonical child ids to parent universe ids; fresh child
	// slots map to -1.
	backMap []int
}

// spawnChild builds the child node type created by firing (rule, tuple),
// registers its seed, and returns the information needed to read back its
// returns.
func (d *guardedDecider) spawnChild(gr *gRule, tuple []int, cloud *gCloud, recs []gRec) (*childInfo, error) {
	// Local child ids: constants unchanged; inherited nulls = null values
	// among the frontier tuple, renumbered in order of first occurrence;
	// fresh slots appended.
	toChild := make(map[int]int) // parent id -> child id (nulls only)
	childNulls := 0
	mapTerm := func(t int) int {
		if t < d.nc {
			return t
		}
		if c, ok := toChild[t]; ok {
			return c
		}
		c := d.nc + childNulls
		childNulls++
		toChild[t] = c
		return c
	}
	childTuple := make([]int, len(tuple))
	for i, t := range tuple {
		childTuple[i] = mapTerm(t)
	}
	inheritedNulls := childNulls
	freshBase := d.nc + childNulls
	childNulls += gr.nExist

	seed := &gSeed{nulls: childNulls}
	var seedSet intSet
	addAtom := func(pred int, args []int) {
		if seedSet.insert(pred, args) {
			seed.atoms = append(seed.atoms, gFact{pred: pred, args: args})
		}
	}
	// New head atoms.
	for _, ha := range gr.head {
		args := make([]int, len(ha.slots))
		for i, s := range ha.slots {
			switch s.kind {
			case 0:
				args[i] = childTuple[s.idx]
			case 1:
				args[i] = freshBase + s.idx
			case 2:
				args[i] = s.idx
			}
		}
		addAtom(ha.pred, args)
	}
	// Inherited atoms: parent-cloud atoms entirely over constants and
	// inherited nulls.
	mappable := func(t int) (int, bool) {
		if t < d.nc {
			return t, true
		}
		c, ok := toChild[t]
		return c, ok
	}
	for p := range cloud.byPred {
		for _, args := range cloud.byPred[p] {
			mapped := make([]int, len(args))
			ok := true
			for i, t := range args {
				m, can := mappable(t)
				if !can {
					ok = false
					break
				}
				mapped[i] = m
			}
			if ok {
				addAtom(p, mapped)
			}
		}
	}
	// Inherited fired records (including the creating trigger's own record,
	// which the caller added to fired/recs before calling us).
	var recSet intSet
	for _, r := range recs {
		mapped := make([]int, len(r.tuple))
		ok := true
		for i, t := range r.tuple {
			m, can := mappable(t)
			if !can {
				ok = false
				break
			}
			mapped[i] = m
		}
		if !ok {
			continue
		}
		if recSet.insert(r.rule, mapped) {
			seed.recs = append(seed.recs, gRec{rule: r.rule, tuple: mapped})
		}
	}
	_ = inheritedNulls

	key, canonSeed, perm := d.canonicalizeWithPerm(seed)
	if _, ok := d.seeds[key]; !ok {
		d.seeds[key] = canonSeed
		if len(d.seeds) > d.opt.MaxNodeTypes {
			return nil, fmt.Errorf("core: guarded node-type budget exceeded (%d types)", len(d.seeds))
		}
	}

	// backMap: canonical child id -> parent id (constants identity;
	// inherited nulls via toChild inverse; fresh -> -1).
	fromChild := make([]int, d.nc+childNulls)
	for i := 0; i < d.nc; i++ {
		fromChild[i] = i
	}
	for i := d.nc; i < len(fromChild); i++ {
		fromChild[i] = -1
	}
	for parent, child := range toChild {
		fromChild[child] = parent
	}
	// perm maps local child ids -> canonical ids; invert it over nulls.
	backMap := make([]int, d.nc+childNulls)
	for i := 0; i < d.nc; i++ {
		backMap[i] = i
	}
	for i := d.nc; i < d.nc+childNulls; i++ {
		backMap[perm[i]] = fromChild[i]
	}
	return &childInfo{key: key, backMap: backMap}, nil
}

// applyReturns copies the child's saturated atoms that are entirely over
// inherited terms back into the parent's cloud. It reports whether anything
// was new.
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
func (d *guardedDecider) applyReturns(ci *childInfo, cloud *gCloud) bool {
	v, ok := d.cache[ci.key]
	if !ok {
		return false
	}
	progress := false
	for _, f := range v.cloud {
		args := make([]int, len(f.args))
		ok := true
		for i, t := range f.args {
			if t >= len(ci.backMap) || ci.backMap[t] == -1 {
				ok = false
				break
			}
			args[i] = ci.backMap[t]
		}
		if ok && cloud.add(f.pred, args) {
			progress = true
		}
	}
	return progress
}

// canonicalize renames the null slots of a seed to a canonical order and
// returns the canonical key and renamed seed.
func (d *guardedDecider) canonicalize(seed *gSeed) (string, *gSeed) {
	k, s, _ := d.canonicalizeWithPerm(seed)
	return k, s
}

// canonicalizeWithPerm additionally returns the applied permutation as a
// full id map (identity on constants).
func (d *guardedDecider) canonicalizeWithPerm(seed *gSeed) (string, *gSeed, []int) {
	n := d.nc + seed.nulls
	if seed.nulls == 0 {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		s := sortedSeed(seed, perm, d.nc)
		return encodeSeed(s), s, perm
	}
	// Signature per null: sorted multiset of occurrence descriptors.
	sig := make([]string, n)
	var sb strings.Builder
	for _, f := range seed.atoms {
		for pos, t := range f.args {
			if t >= d.nc {
				sb.Reset()
				fmt.Fprintf(&sb, "a%d.%d;", f.pred, pos)
				sig[t] += sb.String()
			}
		}
	}
	for _, r := range seed.recs {
		for pos, t := range r.tuple {
			if t >= d.nc {
				sb.Reset()
				fmt.Fprintf(&sb, "r%d.%d;", r.rule, pos)
				sig[t] += sb.String()
			}
		}
	}
	// Normalize signatures (sort descriptor lists).
	for t := d.nc; t < n; t++ {
		parts := strings.Split(sig[t], ";")
		sort.Strings(parts)
		sig[t] = strings.Join(parts, ";")
	}
	nulls := make([]int, seed.nulls)
	for i := range nulls {
		nulls[i] = d.nc + i
	}
	sort.SliceStable(nulls, func(a, b int) bool { return sig[nulls[a]] < sig[nulls[b]] })
	// Group boundaries of equal signatures.
	var groups [][]int
	for i := 0; i < len(nulls); {
		j := i
		for j < len(nulls) && sig[nulls[j]] == sig[nulls[i]] {
			j++
		}
		groups = append(groups, nulls[i:j])
		i = j
	}
	permCount := 1
	for _, gp := range groups {
		for f := 2; f <= len(gp); f++ {
			permCount *= f
		}
	}
	basePerm := func(order []int) []int {
		perm := make([]int, n)
		for i := 0; i < d.nc; i++ {
			perm[i] = i
		}
		for rank, t := range order {
			perm[t] = d.nc + rank
		}
		return perm
	}
	if permCount > guardedMaxPerm {
		perm := basePerm(nulls)
		s := sortedSeed(seed, perm, d.nc)
		return encodeSeed(s), s, perm
	}
	bestKey := ""
	var bestSeed *gSeed
	var bestPerm []int
	var rec func(gi int, order []int)
	rec = func(gi int, order []int) {
		if gi == len(groups) {
			perm := basePerm(order)
			s := sortedSeed(seed, perm, d.nc)
			k := encodeSeed(s)
			if bestKey == "" || k < bestKey {
				bestKey, bestSeed, bestPerm = k, s, perm
			}
			return
		}
		permuteAll(groups[gi], func(g []int) {
			rec(gi+1, append(order, g...))
		})
	}
	rec(0, nil)
	return bestKey, bestSeed, bestPerm
}

// permuteAll calls yield with every permutation of xs (xs is reused; yield
// must not retain it).
func permuteAll(xs []int, yield func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(xs) {
			yield(xs)
			return
		}
		for i := k; i < len(xs); i++ {
			xs[k], xs[i] = xs[i], xs[k]
			rec(k + 1)
			xs[k], xs[i] = xs[i], xs[k]
		}
	}
	rec(0)
}

// sortedSeed applies a permutation and sorts atoms and records.
func sortedSeed(seed *gSeed, perm []int, nc int) *gSeed {
	s := &gSeed{nulls: seed.nulls}
	for _, f := range seed.atoms {
		args := make([]int, len(f.args))
		for i, t := range f.args {
			args[i] = perm[t]
		}
		s.atoms = append(s.atoms, gFact{pred: f.pred, args: args})
	}
	for _, r := range seed.recs {
		tuple := make([]int, len(r.tuple))
		for i, t := range r.tuple {
			tuple[i] = perm[t]
		}
		s.recs = append(s.recs, gRec{rule: r.rule, tuple: tuple})
	}
	sort.Slice(s.atoms, func(a, b int) bool {
		return gAtomKey(s.atoms[a].pred, s.atoms[a].args) < gAtomKey(s.atoms[b].pred, s.atoms[b].args)
	})
	sort.Slice(s.recs, func(a, b int) bool {
		return gRecKey(s.recs[a].rule, s.recs[a].tuple) < gRecKey(s.recs[b].rule, s.recs[b].tuple)
	})
	return s
}

// renderSeed renders a node type's atoms for witnesses: constants by name,
// null slots as n0, n1, …. Inherited fired records are omitted (they gate
// behaviour but rarely aid a human reader); the atom set identifies the
// type well enough to follow the pump.
func (d *guardedDecider) renderSeed(seed *gSeed) string {
	if seed == nil {
		return "?"
	}
	term := func(t int) string {
		if t < d.nc {
			return d.constName[t]
		}
		return fmt.Sprintf("n%d", t-d.nc)
	}
	parts := make([]string, 0, len(seed.atoms))
	for _, f := range seed.atoms {
		args := make([]string, len(f.args))
		for i, a := range f.args {
			args[i] = term(a)
		}
		if len(args) == 0 {
			parts = append(parts, d.predName[f.pred])
		} else {
			parts = append(parts, d.predName[f.pred]+"("+strings.Join(args, ",")+")")
		}
	}
	out := "{" + strings.Join(parts, " ") + "}"
	if len(out) > 120 {
		out = out[:117] + "…}"
	}
	return out
}

func encodeSeed(s *gSeed) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d|", s.nulls)
	for _, f := range s.atoms {
		b.WriteString(gAtomKey(f.pred, f.args))
		b.WriteByte('\x01')
	}
	b.WriteByte('\x02')
	for _, r := range s.recs {
		b.WriteString(gRecKey(r.rule, r.tuple))
		b.WriteByte('\x01')
	}
	return b.String()
}
