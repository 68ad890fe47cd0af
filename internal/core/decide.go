package core

import (
	"context"
	"fmt"

	"chaseterm/internal/acyclicity"
	"chaseterm/internal/chase"
	"chaseterm/internal/critical"
	"chaseterm/internal/logic"
)

// pollDone is the non-blocking cancellation check shared by the
// deciders' fixpoint/worklist loops: it returns ctx.Err() once done is
// closed, nil otherwise. A nil done (context.Background()) is free.
func pollDone(ctx context.Context, done <-chan struct{}) error {
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return ctx.Err()
	default:
		return nil
	}
}

// DecideOptions are the budgets of a decision that may run every
// procedure: the exact deciders' Options, and the critical-instance
// chases of the mfa and critical-saturation rungs (package portfolio),
// of DecideContext's fallback for general TGDs and of the facade's
// bounded fixed-database run.
type DecideOptions struct {
	Options
	// OracleMaxTriggers / OracleMaxFacts bound those chases (defaults
	// 200k).
	OracleMaxTriggers int
	OracleMaxFacts    int
}

// WithDefaults returns o with every non-positive budget replaced by its
// default.
func (o DecideOptions) WithDefaults() DecideOptions {
	o.Options = o.Options.withDefaults()
	// Clamp non-positive budgets to the defaults: a negative oracle budget
	// would otherwise make the fallback chase stop instantly and report an
	// Unknown (or even Terminated-with-zero-work) verdict.
	if o.OracleMaxTriggers <= 0 {
		o.OracleMaxTriggers = 200_000
	}
	if o.OracleMaxFacts <= 0 {
		o.OracleMaxFacts = 200_000
	}
	return o
}

// DecideContext is the direct class dispatch of the termination
// analysis: it classifies the rule set syntactically and runs the
// strongest procedure available.
//
//   - simple-linear and linear sets: DecideLinearContext — exact
//     (Theorems 1–3);
//   - guarded sets: DecideGuardedContext — exact (Theorem 4);
//   - general sets: the problem is undecidable (Gogacz–Marcinkowski), so
//     DecideContext falls back to sound partial answers: weak/rich
//     acyclicity implies termination, and a critical-instance chase that
//     saturates within budget proves termination (Marnette's lemma makes
//     the critical instance complete for non-termination too, but an
//     infinite run can only be cut off, so the negative direction stays
//     Unknown).
//
// No library package calls it: every decide of the library climbs the
// portfolio ladder (package portfolio), which runs the same procedures
// as rungs behind cheaper sound criteria. DecideContext stays as the
// reference the ladder is cross-validated and benchmarked against.
//
// All dispatched procedures poll the context at their fixpoint/worklist
// boundaries, so a canceled or expired context surfaces as ctx.Err()
// well before any search budget is exhausted.
func DecideContext(ctx context.Context, rs *logic.RuleSet, v chase.Variant, opt DecideOptions) (*Verdict, error) {
	opt = opt.WithDefaults()
	if err := Validate(rs, v); err != nil {
		return nil, err
	}
	// Uniform contract: an already-dead context fails every dispatch path,
	// including the ones cheap enough to lack their own polls.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	class := rs.Classify()
	switch class {
	case logic.ClassSimpleLinear:
		// Theorem 1 fast path; the positional graphs ignore constants, so
		// rule sets with constants take the shape decider instead.
		if len(rs.Constants()) == 0 {
			return DecideSimpleLinear(rs, v)
		}
		res, err := DecideLinearContext(ctx, rs, v, opt.Options)
		if err != nil {
			return nil, err
		}
		return res.Verdict, nil
	case logic.ClassLinear:
		res, err := DecideLinearContext(ctx, rs, v, opt.Options)
		if err != nil {
			return nil, err
		}
		return res.Verdict, nil
	case logic.ClassGuarded:
		return DecideGuardedContext(ctx, rs, v, opt.Options)
	default:
		return decideGeneral(ctx, rs, v, opt)
	}
}

// DecideSimpleLinear decides CT^? for simple-linear rule sets by the
// positional criteria directly: Theorem 1 states CT^so ∩ SL = WA ∩ SL and
// CT^o ∩ SL = RA ∩ SL, so no shape construction is needed — this is the
// literal NL procedure behind Theorem 3(1). It returns an error if some
// rule is not simple-linear (constants in rules are also rejected: the
// positional graphs ignore them, and only the constant-free setting of the
// theorem guarantees exactness — DecideLinearContext handles constants).
func DecideSimpleLinear(rs *logic.RuleSet, v chase.Variant) (*Verdict, error) {
	if err := Validate(rs, v); err != nil {
		return nil, err
	}
	for i, r := range rs.Rules {
		if !r.IsSimpleLinear() {
			return nil, fmt.Errorf("core: rule %d (%s) is not simple-linear", i, r)
		}
	}
	if cs := rs.Constants(); len(cs) > 0 {
		return nil, fmt.Errorf("core: positional SL decision requires constant-free rules (found %v); use DecideLinearContext", cs)
	}
	var ok bool
	var w *acyclicity.Witness
	var method string
	if v == chase.Oblivious {
		ok, w = acyclicity.IsRichlyAcyclic(rs)
		method = "rich-acyclicity(SL)"
	} else {
		ok, w = acyclicity.IsWeaklyAcyclic(rs)
		method = "weak-acyclicity(SL)"
	}
	verdict := &Verdict{Method: method}
	if ok {
		verdict.Answer = Terminating
	} else {
		verdict.Answer = NonTerminating
		verdict.Witness = w.String()
	}
	return verdict, nil
}

// decideGeneral applies the sound fallbacks for unrestricted TGDs.
func decideGeneral(ctx context.Context, rs *logic.RuleSet, v chase.Variant, opt DecideOptions) (*Verdict, error) {
	// 1. Positional acyclicity: RA ⇒ CT^o, WA ⇒ CT^so. (Polynomial —
	// cheap enough to run without cancellation points.)
	if v == chase.Oblivious {
		if ok, _ := acyclicity.IsRichlyAcyclic(rs); ok {
			return &Verdict{Answer: Terminating, Method: "rich-acyclicity"}, nil
		}
	} else {
		if ok, _ := acyclicity.IsWeaklyAcyclic(rs); ok {
			return &Verdict{Answer: Terminating, Method: "weak-acyclicity"}, nil
		}
	}
	// 2. Bounded critical-instance chase: saturation proves termination.
	target := rs
	if v == chase.Oblivious {
		target = critical.AuxTransform(rs)
	}
	res, err := critical.OracleContext(ctx, target, chase.SemiOblivious, chase.Options{
		MaxTriggers: opt.OracleMaxTriggers,
		MaxFacts:    opt.OracleMaxFacts,
	})
	if err != nil {
		return nil, err
	}
	if res.Outcome == chase.Terminated {
		return &Verdict{Answer: Terminating, Method: "critical-saturation"}, nil
	}
	// 3. Inconclusive. Report what was observed (a cyclic Skolem term is a
	// strong — though for non-guarded sets not conclusive — sign of
	// divergence).
	witness := fmt.Sprintf("critical chase exceeded budget (%d facts, %d triggers applied, max term depth %d)",
		res.Instance.Size(), res.Stats.TriggersApplied, res.Stats.MaxTermDepth)
	return &Verdict{Answer: Unknown, Method: "bounded-oracle", Witness: witness}, nil
}
