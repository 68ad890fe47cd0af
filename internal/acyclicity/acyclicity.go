// Package acyclicity implements the positional acyclicity criteria that the
// paper builds its simple-linear characterizations on (Theorem 1):
//
//   - Weak acyclicity (Fagin, Kolaitis, Miller, Popa — "Data exchange:
//     semantics and query answering"): the dependency graph over schema
//     positions has no cycle through a special edge. For simple linear TGDs
//     this is exactly CT^so (Theorem 1).
//
//   - Rich acyclicity (Hernich, Schweikardt — "CWA-solutions for data
//     exchange settings with target dependencies"): the same condition on
//     the extended dependency graph, whose special edges also originate at
//     positions of non-frontier body variables (the oblivious chase invents
//     fresh nulls per full homomorphism, so every body position can drive
//     null creation). For simple linear TGDs this is exactly CT^o
//     (Theorem 1). RA ⊆ WA.
//
// Both are sound sufficient conditions for all TGDs: WA ⇒ CT^so and
// RA ⇒ CT^o (hence both ⇒ termination of the restricted chase as well).
// They are complete only for SL; the paper's Theorem 2 refines them into
// critical-weak/rich acyclicity for linear TGDs, implemented in
// internal/core.
package acyclicity

import (
	"fmt"
	"slices"
	"strings"

	"chaseterm/internal/graph"
	"chaseterm/internal/logic"
)

// Mode selects which dependency graph is built.
type Mode int

const (
	// Weak builds the dependency graph of Fagin et al.
	Weak Mode = iota
	// Rich builds the extended dependency graph of Hernich–Schweikardt.
	Rich
	// Joint labels witnesses of the joint-acyclicity check (joint.go),
	// whose cycles run over existential variables, not positions.
	Joint
)

func (m Mode) String() string {
	switch m {
	case Weak:
		return "weak"
	case Rich:
		return "rich"
	default:
		return "joint"
	}
}

// DependencyGraph is the positional graph of a rule set. Node n is the
// position with id n (logic.RuleSet.Position).
type DependencyGraph struct {
	G  *graph.Graph
	rs *logic.RuleSet
}

// Position returns the position of node n.
func (dg *DependencyGraph) Position(n int) logic.Position { return dg.rs.Position(n) }

// Build constructs the (extended) dependency graph of a rule set.
//
// For every TGD σ = φ → ψ and every universally quantified variable x of σ
// occurring in ψ (frontier variable), and every position π of x in φ:
//
//   - a regular edge π → π′ for every position π′ of x in ψ;
//   - a special edge π ⇒ π′ for every position π′ in ψ holding an
//     existentially quantified variable.
//
// In Rich mode, special edges additionally originate at every body position
// of every universally quantified variable (frontier or not): the oblivious
// chase fires one trigger per full homomorphism, so a fresh binding at any
// body position yields a fresh trigger and hence fresh nulls.
//
// Edges are inserted rule by rule in body order, so the graph, and the
// witness read off it, is the same on every call.
func Build(rs *logic.RuleSet, mode Mode) *DependencyGraph {
	dg := &DependencyGraph{G: graph.New(rs.NumPositions()), rs: rs}
	var body, head []occurrence
	var exPos []int
	for ri, r := range rs.Rules {
		body, head = occurrences(rs, ri, body, head)
		exPos = exPos[:0]
		for _, o := range head {
			if slices.Contains(r.Existentials(), o.v) {
				exPos = append(exPos, o.pos)
			}
		}
		for _, src := range body {
			// A body variable that occurs in the head is a frontier
			// variable; its head occurrences are its regular edges.
			frontier := false
			for _, dst := range head {
				if dst.v == src.v {
					frontier = true
					dg.G.AddEdgeDedup(src.pos, dst.pos, false)
				}
			}
			if frontier || mode == Rich {
				for _, dst := range exPos {
					dg.G.AddEdgeDedup(src.pos, dst, true)
				}
			}
		}
	}
	return dg
}

// occurrence is one variable occurrence of a rule: the variable and the
// id of its position.
type occurrence struct {
	v   logic.Variable
	pos int
}

// occurrences returns rule ri's variable occurrences in its body and in
// its head, in atom and argument order, reusing the storage of body and
// head.
func occurrences(rs *logic.RuleSet, ri int, body, head []occurrence) ([]occurrence, []occurrence) {
	r, bases := rs.Rules[ri], rs.AtomBases(ri)
	return appendOccurrences(body[:0], r.Body, bases), appendOccurrences(head[:0], r.Head, bases[len(r.Body):])
}

func appendOccurrences(dst []occurrence, atoms []logic.Atom, bases []int32) []occurrence {
	for k, a := range atoms {
		for i, t := range a.Args {
			if v, ok := t.(logic.Variable); ok {
				dst = append(dst, occurrence{v, int(bases[k]) + i})
			}
		}
	}
	return dst
}

// Witness describes a dangerous cycle. For the weak/rich criteria it is
// a cycle through a special edge of the (extended) dependency graph,
// reported as the sequence of positions; for joint acyclicity it is a
// cycle of the feeds graph, reported as the sequence of existential
// variables (ExVars).
type Witness struct {
	Mode      Mode
	Positions []logic.Position
	// ExVars names the existential variables of a feeds cycle
	// ("rule#i:Z"), set for Mode Joint only.
	ExVars []string
}

func (w *Witness) String() string {
	if w.Mode == Joint {
		return fmt.Sprintf("feeds cycle (%s): %s", w.Mode, strings.Join(w.ExVars, " -> "))
	}
	parts := make([]string, len(w.Positions))
	for i, p := range w.Positions {
		parts[i] = p.String()
	}
	return fmt.Sprintf("dangerous cycle (%s): %s", w.Mode, strings.Join(parts, " -> "))
}

// IsWeaklyAcyclic reports whether the rule set is weakly acyclic, together
// with a dangerous-cycle witness when it is not.
func IsWeaklyAcyclic(rs *logic.RuleSet) (bool, *Witness) {
	return check(rs, Weak)
}

// IsRichlyAcyclic reports whether the rule set is richly acyclic, together
// with a dangerous-cycle witness when it is not.
func IsRichlyAcyclic(rs *logic.RuleSet) (bool, *Witness) {
	return check(rs, Rich)
}

func check(rs *logic.RuleSet, mode Mode) (bool, *Witness) {
	dg := Build(rs, mode)
	e := dg.G.SpecialCycleEdge()
	if e == nil {
		return true, nil
	}
	cycle := dg.G.CycleThrough(*e)
	w := &Witness{Mode: mode, Positions: make([]logic.Position, len(cycle))}
	for i, n := range cycle {
		w.Positions[i] = dg.Position(n)
	}
	return false, w
}
