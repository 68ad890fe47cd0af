package acyclicity

import (
	"fmt"

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
	positions := rs.Positions()
	posIdx := make(map[logic.Position]int, len(positions))
	for i, p := range positions {
		posIdx[p] = i
	}

	type varOcc struct {
		bodyPos []int
		headPos []int
	}
	// Per rule: occurrences of each frontier variable.
	frontierOcc := make([]map[logic.Variable]*varOcc, len(rs.Rules))
	// Per rule: head positions of each existential variable.
	var exVars []exVar
	exHead := make(map[exVar][]int)
	for ri, r := range rs.Rules {
		frontierOcc[ri] = make(map[logic.Variable]*varOcc)
		isFrontier := make(map[logic.Variable]bool)
		for _, v := range r.Frontier() {
			isFrontier[v] = true
			frontierOcc[ri][v] = &varOcc{}
		}
		isEx := make(map[logic.Variable]bool)
		for _, z := range r.Existentials() {
			isEx[z] = true
			exVars = append(exVars, exVar{ri, z})
		}
		for _, a := range r.Body {
			p := a.Predicate()
			for i, t := range a.Args {
				if v, ok := t.(logic.Variable); ok && isFrontier[v] {
					frontierOcc[ri][v].bodyPos = append(frontierOcc[ri][v].bodyPos, posIdx[logic.Position{Pred: p, Index: i}])
				}
			}
		}
		for _, a := range r.Head {
			p := a.Predicate()
			for i, t := range a.Args {
				v, ok := t.(logic.Variable)
				if !ok {
					continue
				}
				n := posIdx[logic.Position{Pred: p, Index: i}]
				if isEx[v] {
					key := exVar{ri, v}
					exHead[key] = append(exHead[key], n)
				} else if isFrontier[v] {
					frontierOcc[ri][v].headPos = append(frontierOcc[ri][v].headPos, n)
				}
			}
		}
	}

	// move computes Move(y) as a least fixpoint.
	move := func(y exVar) []bool {
		in := make([]bool, len(positions))
		for _, n := range exHead[y] {
			in[n] = true
		}
		for changed := true; changed; {
			changed = false
			for ri := range rs.Rules {
				for _, occ := range frontierOcc[ri] {
					if len(occ.bodyPos) == 0 {
						continue
					}
					all := true
					for _, n := range occ.bodyPos {
						if !in[n] {
							all = false
							break
						}
					}
					if !all {
						continue
					}
					for _, n := range occ.headPos {
						if !in[n] {
							in[n] = true
							changed = true
						}
					}
				}
			}
		}
		return in
	}

	idxOf := make(map[exVar]int, len(exVars))
	for i, y := range exVars {
		idxOf[y] = i
	}
	g := graph.New(len(exVars))
	for i, y := range exVars {
		m := move(y)
		// y feeds y′ when some frontier variable of y′'s rule can carry a
		// y-null (all its body positions inside Move(y)).
		for ri, r := range rs.Rules {
			if len(r.Existentials()) == 0 {
				continue
			}
			feeds := false
			for _, occ := range frontierOcc[ri] {
				if len(occ.bodyPos) == 0 {
					continue
				}
				all := true
				for _, n := range occ.bodyPos {
					if !m[n] {
						all = false
						break
					}
				}
				if all {
					feeds = true
					break
				}
			}
			if !feeds {
				continue
			}
			for _, z := range r.Existentials() {
				g.AddEdgeDedup(i, idxOf[exVar{ri, z}], false)
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
