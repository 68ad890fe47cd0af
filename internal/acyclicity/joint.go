package acyclicity

import (
	"fmt"
	"slices"

	"chaseterm/internal/graph"
	"chaseterm/internal/logic"
)

// Joint acyclicity (Krötzsch, Rudolph — "Extending decidable existential
// rules by joining acyclicity and guardedness", IJCAI 2011) is a positional
// termination criterion for the Skolem (semi-oblivious) chase that strictly
// generalizes weak acyclicity: instead of tracking single-edge value flow
// between positions, it tracks, per existential variable y, the full set of
// positions Move(y) that nulls invented for y can ever reach, and requires
// the "feeds" relation between existential variables to be acyclic.
//
//	Move(y): least set of positions with
//	  (i)  every head position of y in its own rule, and
//	  (ii) for every rule ρ and frontier variable x of ρ: if every body
//	       position of x lies in Move(y), then every head position of x
//	       is in Move(y)
//	       (a y-null can be h(x) only if it can sit at all of x's body
//	       positions simultaneously);
//
//	y feeds y′ (edge y → y′): some frontier variable x of y′'s rule has
//	all its body positions inside Move(y) — then a trigger inventing
//	y′-nulls can consume a y-null in its frontier, nesting Skolem terms.
//
// Σ is jointly acyclic iff the feeds graph is acyclic. JA ⇒ CT^so (hence
// restricted-chase termination too), and WA ⊆ JA: weak acyclicity's
// dependency-graph paths are a special case of Move-set propagation. Both
// facts are cross-validated in the tests against the chase oracle and the
// exact deciders of internal/core.
//
// Like WA/RA, the criterion ignores constants (it may under-approximate
// termination for rule sets whose bodies are gated by constants).

// exVar identifies an existential variable by rule index and name.
type exVar struct {
	rule int
	name logic.Variable
}

// IsJointlyAcyclic reports whether the rule set is jointly acyclic,
// together with a feeds-cycle witness when it is not: the sequence of
// existential variables y0 → y1 → … → y0 along which nulls of each
// variable can reach the frontier of the next variable's rule, nesting
// Skolem terms without bound.
func IsJointlyAcyclic(rs *logic.RuleSet) (bool, *Witness) {
	// Flat tables over position ids. A carrier is a frontier variable of
	// some rule: carrier c belongs to rule ruleOf[c], has need[c]
	// distinct body positions and its head positions at
	// headPos[headOf[c]:headOf[c+1]]. Existential variable i (of rule
	// exVars[i].rule, whose first one is firstEx[rule]) sits at head
	// positions exPos[exOf[i]:exOf[i+1]].
	var headPos, exPos, bodyPos []int
	var ruleOf, need []int
	var uses [][2]int // (distinct body position, carrier)
	var exVars []exVar
	headOf, exOf := []int{0}, []int{0}
	firstEx := make([]int, len(rs.Rules))
	var body, head []occurrence
	for ri, r := range rs.Rules {
		firstEx[ri] = len(exVars)
		body, head = occurrences(rs, ri, body, head)
		for _, x := range r.Frontier() {
			c := len(ruleOf)
			bodyPos = appendPositions(bodyPos[:0], body, x)
			slices.Sort(bodyPos)
			bodyPos = slices.Compact(bodyPos)
			for _, n := range bodyPos {
				uses = append(uses, [2]int{n, c})
			}
			ruleOf, need = append(ruleOf, ri), append(need, len(bodyPos))
			headPos = appendPositions(headPos, head, x)
			headOf = append(headOf, len(headPos))
		}
		for _, z := range r.Existentials() {
			exVars = append(exVars, exVar{ri, z})
			exPos = appendPositions(exPos, head, z)
			exOf = append(exOf, len(exPos))
		}
	}
	// users[usersOf[n]:usersOf[n+1]] are the carriers with body
	// position n.
	npos := rs.NumPositions()
	usersOf := make([]int, npos+1)
	for _, u := range uses {
		usersOf[u[0]+1]++
	}
	for n := 0; n < npos; n++ {
		usersOf[n+1] += usersOf[n]
	}
	users := make([]int, len(uses))
	fill := slices.Clone(usersOf[:npos])
	for _, u := range uses {
		users[fill[u[0]]] = u[1]
		fill[u[0]]++
	}

	// Move(y) is a least fixpoint, worked out semi-naively: a carrier
	// can be bound to a y-null once all its body positions are in
	// Move(y) (have[c] == need[c]), and then its head positions join
	// Move(y) and its rule is fed.
	in := make([]bool, npos)
	have := make([]int, len(ruleOf))
	fed := make([]bool, len(rs.Rules))
	var queue []int
	add := func(ns []int) {
		for _, n := range ns {
			if !in[n] {
				in[n] = true
				queue = append(queue, n)
			}
		}
	}
	g := graph.New(len(exVars))
	for i := range exVars {
		clear(in)
		clear(have)
		clear(fed)
		queue = queue[:0]
		add(exPos[exOf[i]:exOf[i+1]])
		for q := 0; q < len(queue); q++ {
			n := queue[q]
			for _, c := range users[usersOf[n]:usersOf[n+1]] {
				if have[c]++; have[c] == need[c] {
					fed[ruleOf[c]] = true
					add(headPos[headOf[c]:headOf[c+1]])
				}
			}
		}
		// y feeds y′ when some frontier variable of y′'s rule can carry a
		// y-null.
		for ri, r := range rs.Rules {
			if !fed[ri] {
				continue
			}
			for k := range r.Existentials() {
				g.AddEdgeDedup(i, firstEx[ri]+k, false)
			}
		}
	}
	e := g.CycleEdge()
	if e == nil {
		return true, nil
	}
	w := &Witness{Mode: Joint}
	for _, n := range g.CycleThrough(*e) {
		y := exVars[n]
		w.ExVars = append(w.ExVars, fmt.Sprintf("rule#%d:%s", y.rule, y.name))
	}
	return false, w
}

// appendPositions appends the position ids of v's occurrences.
func appendPositions(dst []int, occs []occurrence, v logic.Variable) []int {
	for _, o := range occs {
		if o.v == v {
			dst = append(dst, o.pos)
		}
	}
	return dst
}
