// Package critical implements the critical-instance machinery that reduces
// all-instance chase termination to termination on a single database, plus
// the aux-atom transformation relating the oblivious and the semi-oblivious
// chase. Both devices are standard in the chase-termination literature
// (Marnette, PODS 2009; Grahne–Onet, "Anatomy of the chase") and are the
// semantic foundation of the deciders in internal/core and of the bounded
// empirical oracles used to cross-validate them.
//
// # Critical instance
//
// The critical instance I*(Σ) contains the atom p(t̄) for every predicate p
// of the schema of Σ and every tuple t̄ over C = {✶} ∪ consts(Σ), where ✶
// is a fresh constant. Marnette's lemma: the semi-oblivious chase of Σ
// terminates on every database iff it terminates on I*(Σ). Intuition: any
// database maps homomorphically into I* by collapsing all unknown values to
// ✶, and semi-oblivious trigger applications transport along homomorphisms.
//
// # Aux-atom transformation
//
// aux(Σ) extends the head of every rule σ with a fresh atom
// aux_σ(x₁,…,xₙ) holding all universally quantified variables of σ. Then
// the frontier of every rule becomes its full variable set, so the
// semi-oblivious trigger identity (frontier restriction) coincides with the
// oblivious one (full homomorphism): the oblivious chase of Σ and the
// semi-oblivious chase of aux(Σ) apply exactly corresponding triggers on
// every database, and one terminates iff the other does. The aux predicates
// are fresh and never occur in a body, so they enable no new trigger.
// Consequently the critical-instance lemma transfers to the oblivious
// chase: o-chase of Σ terminates on every database iff it terminates on
// I*(aux(Σ)) iff (by the 1-1 trigger correspondence again) the o-chase of Σ
// terminates on I*(Σ) — aux predicates only add inert atoms.
//
// The transformation preserves linearity and guardedness (the added atom is
// in the head), which is what lets internal/core decide CT^o with the CT^so
// machinery.
package critical

import (
	"context"
	"fmt"
	"strings"

	"chaseterm/internal/chase"
	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
)

// Star is the fresh constant of the critical instance. The parser cannot
// produce it (it is not an identifier), so it never collides with rule
// constants.
const Star = logic.Constant("✶") // ✶

// Constants returns the critical constant set C = {✶} ∪ consts(Σ).
func Constants(rs *logic.RuleSet) []logic.Constant {
	return append([]logic.Constant{Star}, rs.Constants()...)
}

// Facts enumerates the critical instance I*(Σ) as ground atoms: every
// predicate of the schema filled with every tuple over Constants(rs).
func Facts(rs *logic.RuleSet) []logic.Atom {
	consts := Constants(rs)
	var out []logic.Atom
	for _, p := range rs.Schema() {
		tuple := make([]int, p.Arity)
		for {
			args := make([]logic.Term, p.Arity)
			for i, c := range tuple {
				args[i] = consts[c]
			}
			out = append(out, logic.Atom{Pred: p.Name, Args: args})
			// next tuple in mixed radix
			i := p.Arity - 1
			for ; i >= 0; i-- {
				tuple[i]++
				if tuple[i] < len(consts) {
					break
				}
				tuple[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	return out
}

// Instance materializes the critical instance. It builds the fact store
// directly over interned term ids — the tuple enumeration never
// round-trips through logic.Atom values the way Facts does, which matters
// because every decider and bounded oracle starts here.
func Instance(rs *logic.RuleSet) (*instance.Instance, error) {
	in := instance.New()
	consts := Constants(rs)
	ids := make([]instance.TermID, len(consts))
	for i, c := range consts {
		ids[i] = in.Terms.Const(string(c))
	}
	for _, p := range rs.Schema() {
		pid := in.Pred(p.Name, p.Arity)
		tuple := make([]int, p.Arity)
		args := make([]instance.TermID, p.Arity)
		for {
			for i, c := range tuple {
				args[i] = ids[c]
			}
			in.Add(pid, args)
			// next tuple in mixed radix
			i := p.Arity - 1
			for ; i >= 0; i-- {
				tuple[i]++
				if tuple[i] < len(consts) {
					break
				}
				tuple[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	return in, nil
}

// AuxPrefix prefixes the generated head-atom predicates of AuxTransform.
const AuxPrefix = "aux·" // aux· — not producible by the parser

// AuxTransform returns aux(Σ): every rule's head is extended with a fresh
// atom over all universally quantified variables of the rule. See the
// package comment for the semantics.
func AuxTransform(rs *logic.RuleSet) *logic.RuleSet {
	out := logic.NewRuleSet()
	for i, r := range rs.Rules {
		vars := r.BodyVariables()
		args := make([]logic.Term, len(vars))
		for j, v := range vars {
			args[j] = v
		}
		auxAtom := logic.Atom{Pred: fmt.Sprintf("%s%d", AuxPrefix, i), Args: args}
		head := make([]logic.Atom, 0, len(r.Head)+1)
		head = append(head, r.Head...)
		head = append(head, auxAtom)
		nr := logic.NewTGD(r.Body, head)
		nr.Label = r.Label
		out.Rules = append(out.Rules, nr)
	}
	return out
}

// IsAuxPredicate reports whether a predicate name was generated by
// AuxTransform.
func IsAuxPredicate(name string) bool { return strings.HasPrefix(name, AuxPrefix) }

// OracleContext is the bounded empirical termination oracle: it runs the
// requested chase variant on the critical instance with the given
// budgets.
//
// By the critical-instance lemma (package comment), for the semi-oblivious
// and oblivious variants a Terminated outcome proves Σ ∈ CT^so (resp.
// CT^o); a budget outcome is inconclusive on its own but is used by tests
// to corroborate a decider's non-termination verdict (the budgets are
// chosen far beyond the saturation sizes of the terminating workloads).
//
// A canceled or expired context stops the underlying chase within its
// check interval and is returned as ctx.Err() alongside the partial
// result (Outcome chase.Canceled).
func OracleContext(ctx context.Context, rs *logic.RuleSet, v chase.Variant, opt chase.Options) (*chase.Result, error) {
	in, err := Instance(rs)
	if err != nil {
		return nil, err
	}
	return chase.RunContext(ctx, in, rs, v, opt)
}

// MFAResult is the outcome of the model-faithful-acyclicity style check.
type MFAResult int

const (
	// MFATerminating: the critical Skolem chase saturated without ever
	// creating a cyclic Skolem term; Σ ∈ CT^so (and the restricted chase
	// terminates too).
	MFATerminating MFAResult = iota
	// MFACyclic: a cyclic Skolem term appeared; termination is unknown
	// under this test (the criterion is sound but incomplete — see the
	// guarded counterexample in internal/core's tests).
	MFACyclic
	// MFABudget: the run exhausted its budget before either event.
	MFABudget
)

func (r MFAResult) String() string {
	switch r {
	case MFATerminating:
		return "terminating"
	case MFACyclic:
		return "cyclic-term"
	default:
		return "budget-exceeded"
	}
}

// MFAContext runs the critical Skolem chase with the cyclic-term
// stopping rule. This is the classic sufficient acyclicity test
// positioned between weak acyclicity and the paper's exact deciders;
// the portfolio runs it as its mfa rung. Cancellation surfaces as
// (MFABudget, partial result, ctx.Err()).
func MFAContext(ctx context.Context, rs *logic.RuleSet, opt chase.Options) (MFAResult, *chase.Result, error) {
	opt.StopOnCyclicSkolem = true
	res, err := OracleContext(ctx, rs, chase.SemiOblivious, opt)
	if err != nil {
		return MFABudget, res, err
	}
	switch res.Outcome {
	case chase.Terminated:
		return MFATerminating, res, nil
	case chase.CyclicTerm:
		return MFACyclic, res, nil
	default:
		return MFABudget, res, nil
	}
}
