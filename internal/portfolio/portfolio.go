// Package portfolio unifies every termination-deciding component of the
// library behind one Decider interface and schedules them as a
// portfolio, the cascade idea of Karimi–Zhang–You ("Theoretical and
// practical aspects of the hierarchical approach for chase termination")
// over the criteria zoo surveyed by Baget et al.: the paper's exact
// procedures are PSPACE/2EXPTIME-complete in the worst case, but cheap
// sufficient conditions decide most real-world rule sets in polynomial
// time, so the scheduler climbs a ladder of sound rungs — positional
// acyclicity first, then a bounded MFA-style critical chase — and only
// reaches for the exact deciders when every cheap rung is inconclusive.
// Run is the library's only all-instance decision path: the facade's
// AnalyzeDecide climbs this ladder for every request.
//
// Every rung is sound: a decisive verdict from any rung is correct for
// the requested variant (RA ⇒ CT^o; WA/JA/MFA/saturation ⇒ CT^so; the
// positional rungs are additionally exact — hence may answer
// NonTerminating — on constant-free simple-linear sets, Theorem 1).
// Only the exact deciders are complete on their applicability domain.
package portfolio

import (
	"context"
	"fmt"

	"chaseterm/internal/acyclicity"
	"chaseterm/internal/chase"
	"chaseterm/internal/core"
	"chaseterm/internal/critical"
	"chaseterm/internal/logic"
)

// Evidence explains a rung's verdict: the concrete procedure that
// produced it, a human-readable witness (dangerous cycle, pumpable
// shape, diagnostic), and the explored abstraction size when the rung
// searched one.
type Evidence struct {
	Method      string
	Witness     string
	SearchSpace int
}

// Verdict is core.Answer for servebench, its only user.
type Verdict = core.Answer

// Undecided is core.Unknown for servebench, its only user.
const Undecided = core.Unknown

// Options is core.DecideOptions for servebench, its only user.
type Options = core.DecideOptions

// Decider is one termination-deciding component: a named procedure
// applicable to some rule sets and chase variants. Every Decider must be
// sound: a decisive answer (core.Terminating or core.NonTerminating) is
// always correct for the requested variant, which is what lets the
// scheduler adopt the first one. core.Unknown, read "undecided", is the
// answer for everything else. Implementations must honor the context: it
// carries the caller's deadline.
type Decider interface {
	// Name is the stable rung label used in reports and metrics.
	Name() string
	// Applicable reports whether the decider can run on this rule set
	// and variant.
	Applicable(rs *logic.RuleSet, v chase.Variant) bool
	// DecideContext runs the procedure.
	DecideContext(ctx context.Context, rs *logic.RuleSet, v chase.Variant, opt core.DecideOptions) (core.Answer, Evidence, error)
}

// slExact reports whether the positional criteria are exact on this rule
// set: Theorem 1 equates them with CT^o/CT^so on constant-free
// simple-linear sets, so a failed check there certifies non-termination.
func slExact(rs *logic.RuleSet) bool {
	return rs.Classify() == logic.ClassSimpleLinear && len(rs.Constants()) == 0
}

// positionalRung is the shared shape of the weak/rich acyclicity rungs.
type positionalRung struct {
	name    string
	variant chase.Variant
	check   func(*logic.RuleSet) (bool, *acyclicity.Witness)
}

func (r positionalRung) Name() string { return r.name }

func (r positionalRung) Applicable(_ *logic.RuleSet, v chase.Variant) bool {
	return v == r.variant
}

func (r positionalRung) DecideContext(_ context.Context, rs *logic.RuleSet, _ chase.Variant, _ core.DecideOptions) (core.Answer, Evidence, error) {
	ok, w := r.check(rs)
	if ok {
		return core.Terminating, Evidence{Method: r.name}, nil
	}
	if slExact(rs) {
		return core.NonTerminating, Evidence{Method: r.name + "(SL)", Witness: w.String()}, nil
	}
	return core.Unknown, Evidence{Method: r.name, Witness: w.String()}, nil
}

// jointRung checks joint acyclicity (JA ⇒ CT^so, WA ⊆ JA). Its negative
// direction stays Undecided: the weak-acyclicity rung runs earlier and
// already covers the simple-linear exactness case.
type jointRung struct{}

func (jointRung) Name() string { return "joint-acyclicity" }

func (jointRung) Applicable(_ *logic.RuleSet, v chase.Variant) bool {
	return v == chase.SemiOblivious
}

func (jointRung) DecideContext(_ context.Context, rs *logic.RuleSet, _ chase.Variant, _ core.DecideOptions) (core.Answer, Evidence, error) {
	ok, w := acyclicity.IsJointlyAcyclic(rs)
	if ok {
		return core.Terminating, Evidence{Method: "joint-acyclicity"}, nil
	}
	return core.Unknown, Evidence{Method: "joint-acyclicity", Witness: w.String()}, nil
}

// mfaRung runs the critical Skolem chase with the cyclic-Skolem-term
// stopping rule (critical.MFAContext) — the model-faithful-acyclicity style
// over-approximation. Saturation without a cyclic term proves CT^so
// (Marnette's lemma); a cyclic term or an exhausted budget is
// inconclusive. The oblivious variant is checked on aux(Σ), whose
// semi-oblivious chase applies exactly the oblivious triggers of Σ.
type mfaRung struct{}

func (mfaRung) Name() string { return "mfa" }

func (mfaRung) Applicable(_ *logic.RuleSet, _ chase.Variant) bool { return true }

func (mfaRung) DecideContext(ctx context.Context, rs *logic.RuleSet, v chase.Variant, opt core.DecideOptions) (core.Answer, Evidence, error) {
	target, method := rs, "mfa"
	if v == chase.Oblivious {
		target, method = critical.AuxTransform(rs), "mfa(aux)"
	}
	res, run, err := critical.MFAContext(ctx, target, chase.Options{
		MaxTriggers: opt.OracleMaxTriggers,
		MaxFacts:    opt.OracleMaxFacts,
	})
	if err != nil {
		return core.Unknown, Evidence{}, err
	}
	switch res {
	case critical.MFATerminating:
		return core.Terminating, Evidence{Method: method, SearchSpace: run.Instance.Size()}, nil
	case critical.MFACyclic:
		return core.Unknown, Evidence{Method: method,
			Witness: fmt.Sprintf("cyclic Skolem term at depth %d after %d triggers",
				run.Stats.MaxTermDepth, run.Stats.TriggersApplied)}, nil
	default:
		return core.Unknown, Evidence{Method: method,
			Witness: fmt.Sprintf("critical chase exceeded budget (%d facts, %d triggers applied)",
				run.Instance.Size(), run.Stats.TriggersApplied)}, nil
	}
}

// saturationRung is the plain bounded critical-instance chase, the
// fallback of core.DecideContext for general rule sets. It is
// applicable only where no exact decider is (class General): inside the
// guarded class the exact rungs answer, and a 200k-trigger chase before
// them would just burn the budget the ladder exists to save. It can
// still prove termination where the mfa rung stopped on a
// cyclic-but-harmless Skolem term.
type saturationRung struct{}

func (saturationRung) Name() string { return "critical-saturation" }

func (saturationRung) Applicable(rs *logic.RuleSet, _ chase.Variant) bool {
	return rs.Classify() == logic.ClassGeneral
}

func (saturationRung) DecideContext(ctx context.Context, rs *logic.RuleSet, v chase.Variant, opt core.DecideOptions) (core.Answer, Evidence, error) {
	target := rs
	if v == chase.Oblivious {
		target = critical.AuxTransform(rs)
	}
	res, err := critical.OracleContext(ctx, target, chase.SemiOblivious, chase.Options{
		MaxTriggers: opt.OracleMaxTriggers,
		MaxFacts:    opt.OracleMaxFacts,
	})
	if err != nil {
		return core.Unknown, Evidence{}, err
	}
	if res.Outcome == chase.Terminated {
		return core.Terminating, Evidence{Method: "critical-saturation", SearchSpace: res.Instance.Size()}, nil
	}
	return core.Unknown, Evidence{Method: "bounded-oracle",
		Witness: fmt.Sprintf("critical chase exceeded budget (%d facts, %d triggers applied, max term depth %d)",
			res.Instance.Size(), res.Stats.TriggersApplied, res.Stats.MaxTermDepth)}, nil
}

// linearRung is the exact linear decider (Theorems 2–3: critical
// weak/rich acyclicity over the shape abstraction).
type linearRung struct{}

func (linearRung) Name() string { return "linear-exact" }

func (linearRung) Applicable(rs *logic.RuleSet, _ chase.Variant) bool {
	c := rs.Classify()
	return c == logic.ClassSimpleLinear || c == logic.ClassLinear
}

func (linearRung) DecideContext(ctx context.Context, rs *logic.RuleSet, v chase.Variant, opt core.DecideOptions) (core.Answer, Evidence, error) {
	res, err := core.DecideLinearContext(ctx, rs, v, opt.Options)
	if err != nil {
		return core.Unknown, Evidence{}, err
	}
	return fromCoreVerdict(res.Verdict)
}

// guardedRung is the exact guarded decider (Theorem 4: the node-type
// fixpoint over the guarded chase forest; CT^o on aux(Σ)).
type guardedRung struct{}

func (guardedRung) Name() string { return "guarded-exact" }

func (guardedRung) Applicable(rs *logic.RuleSet, _ chase.Variant) bool {
	return rs.Classify() != logic.ClassGeneral
}

func (guardedRung) DecideContext(ctx context.Context, rs *logic.RuleSet, v chase.Variant, opt core.DecideOptions) (core.Answer, Evidence, error) {
	res, err := core.DecideGuardedContext(ctx, rs, v, opt.Options)
	if err != nil {
		return core.Unknown, Evidence{}, err
	}
	return fromCoreVerdict(res)
}

// fromCoreVerdict maps an exact decider's verdict into the portfolio
// model.
func fromCoreVerdict(v *core.Verdict) (core.Answer, Evidence, error) {
	return v.Answer, Evidence{Method: v.Method, Witness: v.Witness, SearchSpace: v.SearchSpace()}, nil
}

// Registry is an ordered collection of deciders; the scheduler runs the
// applicable ones in registration order, so a registry lists its rungs
// cheapest first.
type Registry struct {
	deciders []Decider
}

// NewRegistry builds a registry over the given deciders, kept in order.
func NewRegistry(ds ...Decider) *Registry {
	return &Registry{deciders: ds}
}

// Deciders returns the registered deciders in order. The slice must not
// be modified.
func (r *Registry) Deciders() []Decider { return r.deciders }

// DefaultRegistry returns the library's full ladder, bottom-up:
// positional criteria, saturation rungs, exact deciders.
func DefaultRegistry() *Registry {
	return NewRegistry(
		positionalRung{name: "rich-acyclicity", variant: chase.Oblivious, check: acyclicity.IsRichlyAcyclic},
		positionalRung{name: "weak-acyclicity", variant: chase.SemiOblivious, check: acyclicity.IsWeaklyAcyclic},
		jointRung{},
		mfaRung{},
		saturationRung{},
		linearRung{},
		guardedRung{},
	)
}

// RungNames lists the default registry's rung names in ladder order —
// the stable label set of the service's per-rung counters.
func RungNames() []string {
	ds := DefaultRegistry().Deciders()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name()
	}
	return names
}
