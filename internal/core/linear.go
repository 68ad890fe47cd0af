// Package core implements the decision procedures that are the
// contribution of "Chase Termination for Guarded Existential Rules"
// (Calautti, Gottlob, Pieris; PODS 2015):
//
//   - DecideLinearContext — critical-weak/rich acyclicity, the exact
//     characterization of CT^so ∩ L and CT^o ∩ L (Theorem 2), which on
//     simple-linear inputs coincides with plain weak/rich acyclicity
//     (Theorem 1, DecideSimpleLinear) and yields the complexity
//     landscape of Theorem 3;
//   - DecideGuardedContext — the decision procedure for CT^? ∩ G
//     (Theorem 4), implemented as a deterministic memoized fixpoint over
//     node types of the guarded chase forest of the critical instance;
//   - DecideLinearOnContext / DecideGuardedOnContext — the same
//     procedures rooted at a given database instead of the critical
//     instance;
//   - DecideContext — the direct class dispatch, kept as the reference
//     the portfolio ladder (package portfolio) is checked against.
//
// The all-instance procedures decide termination of the chase on the
// critical instance I*(Σ); by the critical-instance lemma (package
// critical) this equals all-instance termination for the semi-oblivious
// chase, and via the aux-atom transformation also for the oblivious chase.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"chaseterm/internal/critical"
	"chaseterm/internal/graph"
	"chaseterm/internal/logic"
)

// Answer is a three-valued decision outcome.
type Answer int

const (
	// Unknown: the procedure could not decide (only possible for the
	// fallback paths outside the guarded class, or on budget exhaustion).
	Unknown Answer = iota
	// Terminating: Σ ∈ CT^? — every ?-chase sequence terminates on every
	// database.
	Terminating
	// NonTerminating: Σ ∉ CT^? — some database has a non-terminating
	// ?-chase sequence (the critical instance is such a database).
	NonTerminating
)

func (a Answer) String() string {
	switch a {
	case Terminating:
		return "terminating"
	case NonTerminating:
		return "non-terminating"
	default:
		return "unknown"
	}
}

// ChaseVariant mirrors chase.Variant for the two variants the paper's
// deciders cover. (Defined locally so this package does not import the
// engine; the façade reconciles the two.)
type ChaseVariant int

const (
	// VariantOblivious decides membership in CT^o.
	VariantOblivious ChaseVariant = iota
	// VariantSemiOblivious decides membership in CT^so.
	VariantSemiOblivious
)

func (v ChaseVariant) String() string {
	if v == VariantOblivious {
		return "oblivious"
	}
	return "semi-oblivious"
}

// Default budgets applied when the corresponding Options field is zero.
const (
	DefaultMaxShapes    = 1_000_000
	DefaultMaxNodeTypes = 250_000
)

// Options bound the deciders. Zero values select generous defaults.
type Options struct {
	// MaxShapes caps the abstract-shape space of DecideLinearContext
	// (default DefaultMaxShapes).
	MaxShapes int
	// MaxNodeTypes caps the node-type space of DecideGuardedContext
	// (default DefaultMaxNodeTypes).
	MaxNodeTypes int
}

func (o Options) withDefaults() Options {
	// Non-positive caps mean "default": a negative cap would make every
	// decision fail immediately with a budget error.
	if o.MaxShapes <= 0 {
		o.MaxShapes = DefaultMaxShapes
	}
	if o.MaxNodeTypes <= 0 {
		o.MaxNodeTypes = DefaultMaxNodeTypes
	}
	return o
}

// Verdict is the result of a decision procedure.
type Verdict struct {
	Answer  Answer
	Variant ChaseVariant
	// Method names the procedure that produced the answer, e.g.
	// "critical-weak-acyclicity" or "guarded-forest".
	Method string
	// Witness is a human-readable certificate: a dangerous cycle over
	// shapes for linear inputs, a pumpable node-type cycle for guarded
	// ones. Empty for terminating verdicts.
	Witness string
	// ShapeCount / NodeTypeCount expose search-space sizes for the
	// complexity experiments (Theorem 3 / Theorem 4 scaling).
	ShapeCount    int
	NodeTypeCount int
}

// ---------------------------------------------------------------------------
// DecideLinearContext: critical-weak/rich acyclicity (Theorems 1–3).
//
// Abstraction. Over the critical instance, every atom produced by a linear
// chase is abstracted to its *shape*: the predicate plus the partition of
// its argument positions into equality classes, each class marked either
// with a specific constant (the critical constant ✶ or a rule constant) or
// as "null" (an invented value). Because a linear rule has a single body
// atom, the children of a concrete atom are determined by its shape alone,
// so the set of shapes reachable from the critical atoms is computable as a
// least fixpoint, and the production relation on shapes mirrors the
// concrete chase exactly.
//
// Term flow. Non-termination must pump a growing term around a cycle. We
// build a graph whose nodes are (shape, null-class) pairs:
//
//   - a REGULAR edge (S,c) → (S',c') when a production from S copies the
//     term of class c into class c' of child shape S' (frontier copying);
//   - a SPECIAL edge (S,c) ⇒ (S',c') when the production invents the value
//     of c' (an existential variable) and class c of S is a legitimate
//     growth source for the variant:
//     – semi-oblivious: c is bound to a frontier variable of the rule (the
//     invented Skolem term f_σz(h(frontier)) nests the frontier terms,
//     so a deeper frontier term yields a deeper — hence new — term);
//     – oblivious: c is bound to any body variable (a fresh binding at any
//     body position makes the homomorphism — and therefore the trigger
//     and its invented nulls — new). Constant-marked classes are never
//     sources or targets: constants cannot grow.
//
// Σ (linear) has a non-terminating ?-chase on some database iff this graph
// has a cycle through a special edge (over reachable shapes):
//
// (⇐, pumping) Realize the cycle's start shape by a concrete atom; each lap
// copies the tracked term around the cycle and the special step strictly
// deepens it (so) or refreshes it (o), so every lap's trigger has a frontier
// tuple (so) or parent atom (o) never seen before and fires, ad infinitum.
// (⇒, provenance) An infinite chase of the critical instance creates terms
// of unbounded depth; following the provenance of a term deeper than
// |shapes × classes| backwards traces a path in the graph that repeats a
// (shape, class) pair with at least one invention step in between — a
// special cycle. For the oblivious variant the same argument applies after
// the aux-atom transformation (package critical), under which the o-graph
// below is literally the so-graph of aux(Σ) restricted to the original
// predicates.
//
// On simple-linear inputs every shape of the right predicate matches every
// body atom (no repeated variables, so no equality constraint can fail),
// and the shape graph collapses onto the positional dependency graph:
// critical-weak acyclicity = weak acyclicity and critical-rich acyclicity =
// rich acyclicity — Theorem 1. The exhaustive equivalence tests in this
// package's test files check exactly that.
// ---------------------------------------------------------------------------

// shapeClassMark marks an equality class of a shape.
type shapeClassMark struct {
	isNull bool
	cnst   string // constant name when !isNull
}

// shape is an abstract atom: predicate, position partition, class marks.
type shape struct {
	pred  string
	class []int // position -> class id (normalized by first occurrence)
	marks []shapeClassMark
	id    int
}

func (s *shape) key() string {
	var b strings.Builder
	b.WriteString(s.pred)
	for _, c := range s.class {
		fmt.Fprintf(&b, ",%d", c)
	}
	for _, m := range s.marks {
		if m.isNull {
			b.WriteString("|n")
		} else {
			b.WriteString("|c:" + m.cnst)
		}
	}
	return b.String()
}

func (s *shape) String() string {
	parts := make([]string, len(s.class))
	nullName := make(map[int]string)
	for i, c := range s.class {
		m := s.marks[c]
		if m.isNull {
			n, ok := nullName[c]
			if !ok {
				n = fmt.Sprintf("n%d", len(nullName)+1)
				nullName[c] = n
			}
			parts[i] = n
		} else {
			parts[i] = m.cnst
		}
	}
	return s.pred + "(" + strings.Join(parts, ",") + ")"
}

// shapeTerm is an abstract term used while constructing a child shape.
type shapeTerm struct {
	kind int // 0 = parent class, 1 = constant, 2 = fresh existential
	val  int // parent class id or existential index
	name string
}

// buildShape normalizes a list of per-position abstract terms into a shape,
// also returning, per class, the originating shapeTerm.
func buildShape(pred string, terms []shapeTerm) (*shape, []shapeTerm) {
	s := &shape{pred: pred, class: make([]int, len(terms))}
	var origins []shapeTerm
	type tkey struct {
		kind int
		val  int
		name string
	}
	classOf := make(map[tkey]int)
	for i, t := range terms {
		k := tkey{t.kind, t.val, t.name}
		c, ok := classOf[k]
		if !ok {
			c = len(s.marks)
			classOf[k] = c
			switch t.kind {
			case 1:
				s.marks = append(s.marks, shapeClassMark{cnst: t.name})
			default:
				s.marks = append(s.marks, shapeClassMark{isNull: true})
			}
			origins = append(origins, t)
		}
		s.class[i] = c
	}
	return s, origins
}

type linearRule struct {
	src      *logic.TGD
	idx      int
	bodyPred string
	bodyArgs []logic.Term
	frontier map[logic.Variable]bool
	bodyVars map[logic.Variable]bool
	exIdx    map[logic.Variable]int
}

// LinearResult carries the full shape analysis, for the benchmarks and the
// façade.
type LinearResult struct {
	Verdict *Verdict
	// Shapes in discovery order (diagnostics).
	Shapes []string
}

// DecideLinearContext decides CT^o / CT^so membership for a set of
// linear TGDs via critical-weak/rich acyclicity: the shape analysis is
// seeded with the critical instance I*(Σ), making the verdict quantify
// over all databases (Marnette's lemma; package critical). It returns an
// error if some rule is not linear or a budget is exceeded. The shape
// worklist polls the context and a cancellation surfaces as ctx.Err().
func DecideLinearContext(ctx context.Context, rs *logic.RuleSet, v ChaseVariant, opt Options) (*LinearResult, error) {
	return decideLinearSeeded(ctx, rs, v, nil, opt)
}

// DecideLinearOnContext decides whether the ?-chase of the GIVEN
// database under the linear rule set terminates — the fixed-database
// variant of the problem (an extension beyond the paper, which notes the
// general-TGD version stays undecidable even with the database given; for
// linear rules the same shape abstraction applies, seeded with the
// database's atom shapes instead of the critical instance: the pumping
// and provenance arguments never used criticality of the seed, only its
// groundness).
func DecideLinearOnContext(ctx context.Context, rs *logic.RuleSet, db []logic.Atom, v ChaseVariant, opt Options) (*LinearResult, error) {
	for _, a := range db {
		if !a.IsGround() {
			return nil, fmt.Errorf("core: database atom %s is not ground", a)
		}
	}
	if db == nil {
		db = []logic.Atom{}
	}
	return decideLinearSeeded(ctx, rs, v, db, opt)
}

// decideLinearSeeded runs the shape analysis seeded with the ground
// database seedDB; a nil seedDB means the critical instance.
func decideLinearSeeded(ctx context.Context, rs *logic.RuleSet, v ChaseVariant, seedDB []logic.Atom, opt Options) (*LinearResult, error) {
	opt = opt.withDefaults()
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	// Uniform contract: an already-dead context fails even runs whose
	// worklist would be empty (e.g. an empty seed database).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var rules []*linearRule
	for i, r := range rs.Rules {
		if !r.IsLinear() {
			return nil, fmt.Errorf("core: rule %d (%s) is not linear", i, r)
		}
		lr := &linearRule{
			src:      r,
			idx:      i,
			bodyPred: r.Body[0].Pred,
			bodyArgs: r.Body[0].Args,
			frontier: make(map[logic.Variable]bool),
			bodyVars: make(map[logic.Variable]bool),
			exIdx:    make(map[logic.Variable]int),
		}
		for _, x := range r.Frontier() {
			lr.frontier[x] = true
		}
		for _, x := range r.BodyVariables() {
			lr.bodyVars[x] = true
		}
		for j, z := range r.Existentials() {
			lr.exIdx[z] = j
		}
		rules = append(rules, lr)
	}

	shapesByKey := make(map[string]*shape)
	var shapes []*shape
	intern := func(s *shape) (*shape, bool) {
		k := s.key()
		if old, ok := shapesByKey[k]; ok {
			return old, false
		}
		s.id = len(shapes)
		shapesByKey[k] = s
		shapes = append(shapes, s)
		return s, true
	}

	// Seed: shapes of the database atoms — by default the critical
	// instance, every predicate filled with every tuple over {✶} ∪ consts(Σ).
	// Constants are spelled raw, as the rules' are.
	if seedDB == nil {
		seedDB = critical.Facts(rs)
	}
	var worklist []*shape
	for _, a := range seedDB {
		terms := make([]shapeTerm, len(a.Args))
		for i, tm := range a.Args {
			terms[i] = shapeTerm{kind: 1, name: string(tm.(logic.Constant))}
		}
		s, _ := buildShape(a.Pred, terms)
		if s2, isNew := intern(s); isNew {
			worklist = append(worklist, s2)
		}
	}

	// Term-flow graph nodes: (shape, null class). Node ids are assigned
	// lazily; edges are added as productions are discovered.
	g := graph.New(0)
	nodeOf := make(map[[2]int]int) // (shapeID, class) -> node
	node := func(sid, class int) int {
		k := [2]int{sid, class}
		if n, ok := nodeOf[k]; ok {
			return n
		}
		n := g.AddNode()
		nodeOf[k] = n
		return n
	}

	// expand computes, for one (shape, rule) pair, the children shapes and
	// graph edges; newly discovered shapes are appended to the worklist.
	expand := func(s *shape, lr *linearRule) error {
		if s.pred != lr.bodyPred {
			return nil
		}
		// Match: equal body terms must be in equal classes; constants must
		// hit classes marked with that constant.
		binding := make(map[logic.Variable]int)
		for i, t := range lr.bodyArgs {
			c := s.class[i]
			switch t := t.(type) {
			case logic.Variable:
				if prev, ok := binding[t]; ok {
					if prev != c {
						return nil
					}
				} else {
					binding[t] = c
				}
			case logic.Constant:
				m := s.marks[c]
				if m.isNull || m.cnst != string(t) {
					return nil
				}
			}
		}
		// Growth sources for special edges.
		var sources []int
		seenSrc := make(map[int]bool)
		for x, c := range binding {
			if !s.marks[c].isNull || seenSrc[c] {
				continue
			}
			if v == VariantSemiOblivious && !lr.frontier[x] {
				continue
			}
			seenSrc[c] = true
			sources = append(sources, c)
		}
		sort.Ints(sources)

		for _, h := range lr.src.Head {
			terms := make([]shapeTerm, len(h.Args))
			for i, t := range h.Args {
				switch t := t.(type) {
				case logic.Variable:
					if lr.frontier[t] {
						pc := binding[t]
						if m := s.marks[pc]; !m.isNull {
							// A frontier variable bound to a constant
							// copies that constant, not a null.
							terms[i] = shapeTerm{kind: 1, name: m.cnst}
						} else {
							terms[i] = shapeTerm{kind: 0, val: pc}
						}
					} else {
						terms[i] = shapeTerm{kind: 2, val: lr.exIdx[t]}
					}
				case logic.Constant:
					terms[i] = shapeTerm{kind: 1, name: string(t)}
				}
			}
			child, origins := buildShape(h.Pred, terms)
			child, isNew := intern(child)
			if isNew {
				if len(shapes) > opt.MaxShapes {
					return fmt.Errorf("core: shape budget exceeded (%d shapes)", len(shapes))
				}
				worklist = append(worklist, child)
			}
			for c2, org := range origins {
				if !child.marks[c2].isNull {
					continue
				}
				switch org.kind {
				case 0: // copied from parent class (null-marked by construction)
					g.AddEdgeDedup(node(s.id, org.val), node(child.id, c2), false)
				case 2: // invented
					for _, c := range sources {
						g.AddEdgeDedup(node(s.id, c), node(child.id, c2), true)
					}
				}
			}
		}
		return nil
	}

	done := ctx.Done()
	for len(worklist) > 0 {
		if err := pollDone(ctx, done); err != nil {
			return nil, err
		}
		s := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		for _, lr := range rules {
			if err := expand(s, lr); err != nil {
				return nil, err
			}
		}
	}

	method := "critical-weak-acyclicity"
	if v == VariantOblivious {
		method = "critical-rich-acyclicity"
	}
	res := &LinearResult{Verdict: &Verdict{
		Answer:     Terminating,
		Variant:    v,
		Method:     method,
		ShapeCount: len(shapes),
	}}
	for _, s := range shapes {
		res.Shapes = append(res.Shapes, s.String())
	}
	if e := g.SpecialCycleEdge(); e != nil {
		res.Verdict.Answer = NonTerminating
		cyc := g.CycleThrough(*e)
		// Render the witness cycle as shapes with the tracked class
		// highlighted.
		rev := make(map[int][2]int, len(nodeOf))
		for k, n := range nodeOf {
			rev[n] = k
		}
		var parts []string
		for _, n := range cyc {
			sc := rev[n]
			parts = append(parts, fmt.Sprintf("%s@c%d", shapes[sc[0]].String(), sc[1]))
		}
		res.Verdict.Witness = "pumpable shape cycle: " + strings.Join(parts, " -> ")
	}
	return res, nil
}
