package portfolio

import (
	"context"
	"time"

	"chaseterm/internal/chase"
	"chaseterm/internal/core"
	"chaseterm/internal/logic"
)

// RungReport records one rung's run inside a portfolio decision.
type RungReport struct {
	Rung    string
	Verdict core.Answer
	Elapsed time.Duration
}

// Result is the portfolio's decision together with its provenance: which
// rung decided and a per-rung trace.
type Result struct {
	Verdict  core.Answer
	Evidence Evidence
	// DecidedBy names the rung whose verdict was adopted; empty when the
	// whole portfolio ran without reaching a decision.
	DecidedBy string
	// Rungs traces every rung that ran, in ladder order.
	Rungs []RungReport
}

// Run schedules the default registry over the rule set.
func Run(ctx context.Context, rs *logic.RuleSet, v chase.Variant, opt core.DecideOptions) (*Result, error) {
	return RunWith(ctx, DefaultRegistry(), rs, v, opt)
}

// RunWith schedules a registry over the rule set: the applicable
// deciders run sequentially in registration order, the ladder climbing
// until the first decisive verdict. The restricted chase is an error
// (core.Validate).
func RunWith(ctx context.Context, reg *Registry, rs *logic.RuleSet, v chase.Variant, opt core.DecideOptions) (*Result, error) {
	opt = opt.WithDefaults()
	if err := core.Validate(rs, v); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{}
	// lastEv keeps the most informative inconclusive evidence (e.g. the
	// bounded-oracle diagnostic) for an exhausted portfolio.
	var lastEv Evidence
	for _, d := range reg.Deciders() {
		if !d.Applicable(rs, v) {
			continue
		}
		t0 := time.Now()
		verdict, ev, err := d.DecideContext(ctx, rs, v, opt)
		if err != nil {
			return nil, err
		}
		res.Rungs = append(res.Rungs, RungReport{Rung: d.Name(), Verdict: verdict, Elapsed: time.Since(t0)})
		if verdict != core.Unknown {
			res.Verdict, res.Evidence, res.DecidedBy = verdict, ev, d.Name()
			return res, nil
		}
		if ev.Method != "" {
			lastEv = ev
		}
	}
	if lastEv.Method == "" {
		lastEv.Method = "portfolio-exhausted"
	}
	res.Evidence = lastEv
	return res, nil
}
