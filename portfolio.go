package chaseterm

import (
	"context"
	"time"

	"chaseterm/internal/core"
	"chaseterm/internal/portfolio"
)

// RungTiming is one rung's entry in a portfolio trace (Verdict.Rungs).
type RungTiming struct {
	// Rung is the stable rung name ("weak-acyclicity", "mfa",
	// "guarded-exact", …).
	Rung string
	// Verdict is the rung's own answer: "terminating",
	// "non-terminating", or "undecided".
	Verdict string
	// Elapsed is the rung's wall time.
	Elapsed time.Duration
}

// decidePortfolio is the all-instance decision behind Analyzer.Analyze:
// the termination portfolio's ladder of cheap sound criteria —
// positional acyclicity, then bounded critical-chase rungs — runs
// bottom-up and short-circuits on the first decisive verdict, so the
// paper's exact (PSPACE/2EXPTIME) procedures only run when every cheap
// rung is inconclusive. The verdict carries its provenance: the rung
// that decided and the per-rung trace.
func decidePortfolio(ctx context.Context, rules *RuleSet, v Variant, opt DecideOptions) (*Verdict, error) {
	class := rules.Classify()
	if v == Restricted {
		// The paper leaves the restricted chase open (Section 4); we
		// report the sound answers available. Termination of the
		// semi-oblivious chase implies termination of the restricted
		// chase (the restricted chase applies a subset of the
		// semi-oblivious triggers on every database), so a CT^so Yes
		// transfers; anything else stays open.
		so, err := decidePortfolio(ctx, rules, SemiOblivious, opt)
		if err != nil {
			return nil, err
		}
		if so.Terminates == Yes {
			so.Method += "→restricted"
			return so, nil
		}
		return &Verdict{
			Terminates: Unknown,
			Class:      class,
			Method:     "restricted-open",
			Witness: "deciding restricted-chase termination is the paper's open problem; " +
				"CT^so gave " + so.Terminates.String(),
			DecidedBy: so.DecidedBy,
			Rungs:     so.Rungs,
		}, nil
	}
	cv := core.VariantSemiOblivious
	if v == Oblivious {
		cv = core.VariantOblivious
	}
	res, err := portfolio.Run(ctx, rules.rs, cv, portfolio.Options{
		Core: core.Options{
			MaxShapes:    opt.MaxShapes,
			MaxNodeTypes: opt.MaxNodeTypes,
		},
		OracleMaxTriggers: opt.OracleMaxTriggers,
		OracleMaxFacts:    opt.OracleMaxFacts,
	})
	if err != nil {
		return nil, err
	}
	verdict := &Verdict{
		Class:       class,
		Method:      res.Evidence.Method,
		Witness:     res.Evidence.Witness,
		SearchSpace: res.Evidence.SearchSpace,
		DecidedBy:   res.DecidedBy,
		Rungs:       make([]RungTiming, len(res.Rungs)),
	}
	switch res.Verdict {
	case portfolio.Terminating:
		verdict.Terminates = Yes
	case portfolio.NonTerminating:
		verdict.Terminates = No
	default:
		verdict.Terminates = Unknown
	}
	for i, r := range res.Rungs {
		verdict.Rungs[i] = RungTiming{Rung: r.Rung, Verdict: r.Verdict.String(), Elapsed: r.Elapsed}
	}
	return verdict, nil
}

// PortfolioRungNames lists the portfolio's rung names in ladder order —
// the label set of the service's per-rung counters.
func PortfolioRungNames() []string { return portfolio.RungNames() }
