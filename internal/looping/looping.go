// Package looping implements the paper's *looping operator*: the uniform
// device behind every lower bound of "Chase Termination for Guarded
// Existential Rules" — "a generic reduction from propositional atom
// entailment to the complement of chase termination" (Section 3.1).
//
// # The construction
//
// Given a rule set Σ, a database D and a ground goal atom, the operator
// produces Σ′ = Loop(Σ, D, goal) over a token-threaded copy of the schema:
//
//   - every predicate p/k of Σ becomes p̂/(k+1), the extra (last) position
//     carrying a derivation token;
//   - every rule of Σ is threaded with a single fresh token variable T
//     added to every body and head atom — so every derivation of Σ′ is
//     token-homogeneous;
//   - a seeding rule   run(T) → D̂(T)   asserts the (token-tagged) database;
//   - a pumping rule   ĝoal(c̄, T) → ∃T′ run(T′) ∧ pumped(T)   restarts
//     everything with a fresh token whenever the goal is derived (the
//     pumped(T) marker keeps T in the frontier so each goal token re-fires
//     the pump).
//
// On the critical instance, ĝoal(c̄, ✶) is present, so the pump fires once
// and starts a clean generation with a fresh token t₁: the t₁-tagged facts
// are exactly D, and the t₁-derivation is isomorphic to the chase of D
// under Σ. If the goal is entailed, ĝoal(c̄, t₁) appears, the pump fires
// again (the frontier {T} is new), and so on forever; if not, the
// generation dies out and the chase terminates. Hence, whenever Σ ∈ CT^so
// (so that each generation is finite — the paper's reductions guarantee
// this by *clocking* the simulated Turing machines, and our workloads use
// Datalog rule sets, which always saturate):
//
//	Loop(Σ, D, goal) ∈ CT^?  ⟺  D ∪ Σ ⊭ goal      (? ∈ {o, so})
//
// The transformation preserves simple-linearity, linearity and guardedness
// (the token joins every atom, including guards), which is exactly why the
// paper can reuse it across Theorems 3 and 4 to push entailment hardness
// into chase termination. The experiments instantiate it with chain and
// binary-counter entailment families (this package) and decide the result
// with the exact deciders of internal/core — empirically reproducing the
// reduction that underlies the NL/PSPACE/2EXPTIME-hardness results.
package looping

import (
	"context"
	"fmt"

	"chaseterm/internal/chase"
	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
)

// TokenVar is the variable threaded through every transformed rule.
const TokenVar = logic.Variable("TOKEN")

// hat decorates a predicate name from the source schema.
func hat(name string) string { return name + "ˆ" }

// RunPred is the generation-start predicate of the transformed set.
const RunPred = "runˆ"

// PumpedPred marks consumed goal tokens; it keeps the token variable in the
// pump rule's frontier (see Loop).
const PumpedPred = "pumpedˆ"

// Instance is one propositional-atom-entailment instance: does D ∪ Σ
// entail Goal?
type Instance struct {
	Rules *logic.RuleSet
	DB    []logic.Atom
	Goal  logic.Atom // ground
}

// Loop applies the looping operator, producing a rule set whose
// (semi-)oblivious chase termination is the complement of entailment for
// the instance (provided each generation saturates; see the package
// comment).
func Loop(inst Instance) (*logic.RuleSet, error) {
	if !inst.Goal.IsGround() {
		return nil, fmt.Errorf("looping: goal %s is not ground", inst.Goal)
	}
	out := logic.NewRuleSet()
	thread := func(a logic.Atom) logic.Atom {
		args := make([]logic.Term, 0, len(a.Args)+1)
		args = append(args, a.Args...)
		args = append(args, TokenVar)
		return logic.Atom{Pred: hat(a.Pred), Args: args}
	}
	// Σ̂: token-threaded copies.
	for _, r := range inst.Rules.Rules {
		body := make([]logic.Atom, len(r.Body))
		for i, a := range r.Body {
			body[i] = thread(a)
		}
		head := make([]logic.Atom, len(r.Head))
		for i, a := range r.Head {
			head[i] = thread(a)
		}
		nr := logic.NewTGD(body, head)
		nr.Label = r.Label
		out.Rules = append(out.Rules, nr)
	}
	// Seeding rule: run(T) -> D̂(T).
	seedHead := make([]logic.Atom, 0, len(inst.DB))
	for _, f := range inst.DB {
		seedHead = append(seedHead, thread(f))
	}
	if len(seedHead) == 0 {
		return nil, fmt.Errorf("looping: empty database")
	}
	out.Rules = append(out.Rules, logic.NewTGD(
		[]logic.Atom{{Pred: RunPred, Args: []logic.Term{TokenVar}}},
		seedHead,
	))
	// Pumping rule: ĝoal(c̄,T) → ∃T′ run(T′) ∧ pumped(T).
	//
	// The pumped(T) marker is essential, not cosmetic: without it the
	// token variable T would not occur in the head, the rule's frontier
	// would be empty, and the semi-oblivious chase would fire the pump
	// exactly once globally — for EVERY token, killing the loop. With the
	// marker the frontier is {T}, so each freshly derived goal token
	// re-fires the pump. pumped never occurs in a body, so it enables no
	// trigger.
	out.Rules = append(out.Rules, logic.NewTGD(
		[]logic.Atom{thread(inst.Goal)},
		[]logic.Atom{
			{Pred: RunPred, Args: []logic.Term{logic.Variable("TOKEN2")}},
			{Pred: PumpedPred, Args: []logic.Term{TokenVar}},
		},
	))
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("looping: transformed set invalid: %w", err)
	}
	return out, nil
}

// EntailedContext answers the entailment question directly by saturating
// D under Σ with the semi-oblivious chase (exact for Datalog rule sets,
// which always saturate; for rule sets with existentials the budget
// applies and an inconclusive run returns an error). The underlying
// chase polls the context, so a canceled or expired context surfaces as
// ctx.Err().
func EntailedContext(ctx context.Context, inst Instance, opt chase.Options) (bool, error) {
	res, err := chase.RunFromAtomsContext(ctx, inst.DB, inst.Rules, chase.SemiOblivious, opt)
	if err != nil {
		return false, err
	}
	if res.Outcome != chase.Terminated {
		return false, fmt.Errorf("looping: entailment chase did not saturate (%v)", res.Outcome)
	}
	in := res.Instance
	pid, ok := in.LookupPred(inst.Goal.Pred)
	if !ok {
		return false, nil
	}
	goalArgs := make([]instance.TermID, 0, len(inst.Goal.Args))
	for _, t := range inst.Goal.Args {
		c, okc := t.(logic.Constant)
		if !okc {
			return false, fmt.Errorf("looping: goal %s not ground", inst.Goal)
		}
		id, found := in.Terms.LookupConst(string(c))
		if !found {
			return false, nil
		}
		goalArgs = append(goalArgs, id)
	}
	return in.Contains(pid, goalArgs), nil
}

// ---------------------------------------------------------------------------
// Entailment hardness families (the sources of the paper's reductions).
// ---------------------------------------------------------------------------

// Chain builds the linear entailment instance: facts r0; rules
// r_{i-1} → r_i for i=1..k; goal r_k (entailed) or r_{k+1}-style dead goal
// when entailed is false. Simple-linear Datalog: deciding the looped set
// exercises the NL-hardness route of Theorem 3(1).
func Chain(k int, entailed bool) Instance {
	rs := logic.NewRuleSet()
	for i := 1; i <= k; i++ {
		rs.Rules = append(rs.Rules, logic.NewTGD(
			[]logic.Atom{{Pred: fmt.Sprintf("r%d", i-1)}},
			[]logic.Atom{{Pred: fmt.Sprintf("r%d", i)}},
		))
	}
	goal := logic.Atom{Pred: fmt.Sprintf("r%d", k)}
	if !entailed {
		// An unreachable predicate: mentioned in a rule guarded behind
		// nothing — simplest is a goal predicate with no deriving rule.
		goal = logic.Atom{Pred: "unreachable"}
		rs.Rules = append(rs.Rules, logic.NewTGD(
			[]logic.Atom{{Pred: "unreachable"}},
			[]logic.Atom{{Pred: "sink"}},
		))
	}
	return Instance{
		Rules: rs,
		DB:    []logic.Atom{{Pred: "r0"}},
		Goal:  goal,
	}
}

// Counter builds the b-bit binary-counter entailment instance: the counter
// predicate c/b over constants 0/1, increment rules, database c(0,…,0) and
// goal c(1,…,1) — entailment forces 2^b derivation steps. The rules are
// simple-linear Datalog with constants; under the looping operator this is
// the shape of the paper's clocked-machine reductions.
func Counter(b int) Instance {
	if b < 1 {
		b = 1
	}
	rs := logic.NewRuleSet()
	zero, one := logic.Constant("0"), logic.Constant("1")
	// For each j: c(X1..X_{b-j-1}, 0, 1^j) -> c(X1.., 1, 0^j).
	for j := 0; j < b; j++ {
		body := make([]logic.Term, b)
		head := make([]logic.Term, b)
		nv := b - j - 1
		for i := 0; i < nv; i++ {
			v := logic.Variable(fmt.Sprintf("X%d", i))
			body[i] = v
			head[i] = v
		}
		body[nv] = zero
		head[nv] = one
		for i := nv + 1; i < b; i++ {
			body[i] = one
			head[i] = zero
		}
		rs.Rules = append(rs.Rules, logic.NewTGD(
			[]logic.Atom{{Pred: "c", Args: body}},
			[]logic.Atom{{Pred: "c", Args: head}},
		))
	}
	dbArgs := make([]logic.Term, b)
	goalArgs := make([]logic.Term, b)
	for i := 0; i < b; i++ {
		dbArgs[i] = zero
		goalArgs[i] = one
	}
	return Instance{
		Rules: rs,
		DB:    []logic.Atom{{Pred: "c", Args: dbArgs}},
		Goal:  logic.Atom{Pred: "c", Args: goalArgs},
	}
}
