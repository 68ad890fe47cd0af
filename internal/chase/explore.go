package chase

import (
	"fmt"
	"sort"
	"strings"

	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
)

// This file implements an explorer for the ∃-SEQUENCE side of the
// restricted chase on a fixed database. The paper (§2) defines both the
// ∀-sequence and ∃-sequence termination problems and notes they coincide
// for the oblivious and semi-oblivious chase; for the restricted chase they
// differ, because applying a "repairing" trigger first can satisfy an
// "inventing" trigger before it is considered. ExploreRestrictedTermination
// searches the tree of restricted-chase sequences — branching on which
// active trigger to apply next — for a terminating sequence, memoizing
// states up to null renaming.
//
// The search is sound in both directions when it completes: a Found result
// carries an explicit terminating sequence (finite sequences are vacuously
// fair); an exhausted search without success proves that no terminating
// sequence exists from this database within the explored fact bound.
// Deciding this for ALL databases is the paper's open problem (§4), which
// this tool deliberately does not claim to solve.

// ExploreOptions bound the sequence search. Zero values mean defaults.
type ExploreOptions struct {
	// MaxStates caps visited (deduplicated) states (default 10_000).
	MaxStates int
	// MaxFacts prunes branches whose instance grows beyond this size
	// (default 200).
	MaxFacts int
}

func (o ExploreOptions) withDefaults() ExploreOptions {
	if o.MaxStates == 0 {
		o.MaxStates = 10_000
	}
	if o.MaxFacts == 0 {
		o.MaxFacts = 200
	}
	return o
}

// ExploreResult reports the outcome of the sequence search.
type ExploreResult struct {
	// Found: a terminating restricted-chase sequence exists; Trace holds
	// the rule labels applied along it.
	Found bool
	// Exhausted: the search space was fully explored (no budget pruning);
	// with Found == false this certifies that every restricted sequence
	// from the database diverges past the fact bound.
	Exhausted bool
	// StatesExplored counts deduplicated states.
	StatesExplored int
	// Trace is one terminating application sequence (rule indexes).
	Trace []int
	// FinalFacts renders the terminal instance of the found sequence.
	FinalFacts []string
}

const exploreNullPrefix = "\x00n" // unparseable: cannot collide with input constants

type exploreState struct {
	atoms []logic.Atom
	nulls int
}

// ExploreRestrictedTermination searches for a terminating restricted-chase
// sequence of the database w.r.t. the rule set.
func ExploreRestrictedTermination(db []logic.Atom, rs *logic.RuleSet, opt ExploreOptions) (*ExploreResult, error) {
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	res := &ExploreResult{Exhausted: true}
	seen := make(map[string]bool)

	// Breadth-first over states: finds a SHORTEST terminating sequence and
	// cannot be trapped by an infinitely deep inventing branch the way a
	// depth-first search would be.
	type qitem struct {
		st    *exploreState
		trace []int
	}
	queue := []qitem{{st: &exploreState{atoms: append([]logic.Atom(nil), db...)}}}
	seen[canonicalState(queue[0].st)] = true

	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		res.StatesExplored++

		in, err := instance.FromAtoms(item.st.atoms)
		if err != nil {
			return nil, err
		}
		choices, err := activeTriggers(in, rs)
		if err != nil {
			return nil, err
		}
		if len(choices) == 0 {
			res.Found = true
			res.Trace = item.trace
			res.FinalFacts = in.Strings()
			return res, nil
		}
		if len(item.st.atoms) >= opt.MaxFacts {
			res.Exhausted = false
			continue
		}
		for _, c := range choices {
			next := applyChoice(item.st, c)
			key := canonicalState(next)
			if seen[key] {
				continue
			}
			if len(seen) >= opt.MaxStates {
				res.Exhausted = false
				continue
			}
			seen[key] = true
			trace := make([]int, len(item.trace)+1)
			copy(trace, item.trace)
			trace[len(item.trace)] = c.rule
			queue = append(queue, qitem{st: next, trace: trace})
		}
	}
	return res, nil
}

// choice is one active trigger: a rule plus the frontier binding rendered
// back to logic terms.
type choice struct {
	rule     int
	src      *logic.TGD
	frontier map[logic.Variable]logic.Term
}

// activeTriggers enumerates the restricted-chase-active triggers: body
// homomorphisms whose frontier restriction cannot be extended to map the
// head into the instance. Triggers are deduplicated by frontier (two
// extensions with the same frontier restriction create isomorphic
// successors).
func activeTriggers(in *instance.Instance, rs *logic.RuleSet) ([]choice, error) {
	var out []choice
	var seen instance.TupleSet // frontier identity, tagged by rule
	var heads instance.PatternSet
	fr := make([]instance.TermID, 0, 8)
	for ri, r := range rs.Rules {
		body, err := instance.CompileBody(in, r.Body)
		if err != nil {
			return nil, err
		}
		frontier := r.Frontier()
		headPat, err := heads.CompileHead(in, r.Head, frontier)
		if err != nil {
			return nil, err
		}
		frIdx := make([]int, len(frontier))
		for i, v := range frontier {
			frIdx[i] = body.VarIndex(v)
		}
		in.FindHoms(body, nil, func(binding []instance.TermID) bool {
			fr = fr[:0]
			for _, vi := range frIdx {
				fr = append(fr, binding[vi])
			}
			if _, added := seen.Insert(int32(ri), fr); !added {
				return true
			}
			if in.HasHom(headPat, fr) {
				return true // satisfied: not active
			}
			ch := choice{rule: ri, src: r, frontier: make(map[logic.Variable]logic.Term, len(frontier))}
			for i, v := range frontier {
				ch.frontier[v] = termToLogic(in, fr[i])
			}
			out = append(out, ch)
			return true
		})
	}
	return out, nil
}

// termToLogic renders an instance term back into a logic constant (nulls
// keep their reserved-prefix names and stay unparseable).
func termToLogic(in *instance.Instance, t instance.TermID) logic.Term {
	return logic.Constant(in.Terms.String(t))
}

// applyChoice extends the state with the instantiated head of the chosen
// trigger, inventing reserved-prefix null constants for the existential
// variables.
func applyChoice(st *exploreState, c choice) *exploreState {
	next := &exploreState{
		atoms: append([]logic.Atom(nil), st.atoms...),
		nulls: st.nulls,
	}
	assign := make(map[logic.Variable]logic.Term, len(c.frontier))
	for v, t := range c.frontier {
		assign[v] = t
	}
	for _, z := range c.src.Existentials() {
		next.nulls++
		assign[z] = logic.Constant(fmt.Sprintf("%s%d", exploreNullPrefix, next.nulls))
	}
	have := make(map[string]bool, len(next.atoms))
	for _, a := range next.atoms {
		have[a.String()] = true
	}
	for _, h := range c.src.Head {
		args := make([]logic.Term, len(h.Args))
		for i, t := range h.Args {
			if v, ok := t.(logic.Variable); ok {
				args[i] = assign[v]
			} else {
				args[i] = t
			}
		}
		a := logic.Atom{Pred: h.Pred, Args: args}
		if !have[a.String()] {
			have[a.String()] = true
			next.atoms = append(next.atoms, a)
		}
	}
	return next
}

// canonicalState renders a state up to null renaming: nulls are renamed by
// a signature-guided order, atoms sorted.
func canonicalState(st *exploreState) string {
	sig := make(map[string]string)
	for _, a := range st.atoms {
		for i, t := range a.Args {
			if c, ok := t.(logic.Constant); ok && strings.HasPrefix(string(c), exploreNullPrefix) {
				sig[string(c)] += fmt.Sprintf("%s.%d;", a.Pred, i)
			}
		}
	}
	names := make([]string, 0, len(sig))
	for n := range sig {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		si, sj := sortSig(sig[names[i]]), sortSig(sig[names[j]])
		if si != sj {
			return si < sj
		}
		return names[i] < names[j]
	})
	ren := make(map[string]string, len(names))
	for i, n := range names {
		ren[n] = fmt.Sprintf("%sc%d", exploreNullPrefix, i)
	}
	lines := make([]string, len(st.atoms))
	for i, a := range st.atoms {
		parts := make([]string, len(a.Args))
		for j, t := range a.Args {
			s := t.String()
			if c, ok := t.(logic.Constant); ok {
				if r, hit := ren[string(c)]; hit {
					s = r
				}
			}
			parts[j] = s
		}
		lines[i] = a.Pred + "(" + strings.Join(parts, ",") + ")"
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func sortSig(s string) string {
	parts := strings.Split(s, ";")
	sort.Strings(parts)
	return strings.Join(parts, ";")
}
