package chase_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	. "chaseterm/internal/chase"
	"chaseterm/internal/critical"
	"chaseterm/internal/logic"
	"chaseterm/internal/workload"
)

// TestQuickTerminatedResultIsModel: whenever a chase run terminates, its
// result satisfies every rule — property 1 of the chase from the paper's
// introduction, checked across variants on random guarded sets over the
// critical instance.
func TestQuickTerminatedResultIsModel(t *testing.T) {
	f := func(seedVal int64) bool {
		rng := rand.New(rand.NewSource(seedVal))
		rs := workload.RandomGuarded(rng, workload.Config{NumPreds: 2, MaxArity: 2, NumRules: 2})
		for _, v := range []Variant{Oblivious, SemiOblivious, Restricted} {
			res, err := critical.OracleContext(context.Background(), rs, v, Options{MaxTriggers: 3000, MaxFacts: 3000})
			if err != nil {
				return false
			}
			if res.Outcome != Terminated {
				continue
			}
			violation, err := IsModel(res.Instance, rs)
			if err != nil || violation != "" {
				t.Logf("%v: %s %v\n%s", v, violation, err, rs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickVariantWorkOrder: on terminating runs over the same input, the
// semi-oblivious chase never applies more triggers than the oblivious one
// (it collapses frontier-equivalent homomorphisms), and both derive the
// restricted chase's facts (restricted ⊆ so ⊆ o up to null renaming, so
// fact counts are ordered).
func TestQuickVariantWorkOrder(t *testing.T) {
	f := func(seedVal int64) bool {
		rng := rand.New(rand.NewSource(seedVal))
		rs := workload.RandomSL(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3})
		budget := Options{MaxTriggers: 3000, MaxFacts: 3000}
		o, err := critical.OracleContext(context.Background(), rs, Oblivious, budget)
		if err != nil {
			return false
		}
		so, err := critical.OracleContext(context.Background(), rs, SemiOblivious, budget)
		if err != nil {
			return false
		}
		r, err := critical.OracleContext(context.Background(), rs, Restricted, budget)
		if err != nil {
			return false
		}
		if o.Outcome != Terminated || so.Outcome != Terminated || r.Outcome != Terminated {
			return true // only compare completed runs
		}
		if so.Stats.TriggersApplied > o.Stats.TriggersApplied {
			t.Logf("so=%d > o=%d on:\n%s", so.Stats.TriggersApplied, o.Stats.TriggersApplied, rs)
			return false
		}
		if so.Instance.Size() > o.Instance.Size() {
			t.Logf("so facts %d > o facts %d on:\n%s", so.Instance.Size(), o.Instance.Size(), rs)
			return false
		}
		if r.Instance.Size() > so.Instance.Size() {
			t.Logf("restricted facts %d > so facts %d on:\n%s", r.Instance.Size(), so.Instance.Size(), rs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickObliviousOrderInvariance: for the oblivious chase the outcome
// (and the number of triggers on terminating runs) does not depend on the
// scheduling order — CT^o_∀ = CT^o_∃ made concrete. Reversing the rule
// order reorders the FIFO schedule: seeding and discovery both visit the
// rules in index order.
func TestQuickObliviousOrderInvariance(t *testing.T) {
	f := func(seedVal int64) bool {
		rng := rand.New(rand.NewSource(seedVal))
		rs := workload.RandomSL(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3})
		rev := logic.NewRuleSet(slices.Clone(rs.Rules)...)
		slices.Reverse(rev.Rules)
		budget := 2500
		var outcomes []Outcome
		var triggers []int
		for _, order := range []*logic.RuleSet{rs, rev} {
			res, err := critical.OracleContext(context.Background(), order, Oblivious, Options{
				MaxTriggers: budget, MaxFacts: budget,
			})
			if err != nil {
				return false
			}
			outcomes = append(outcomes, res.Outcome)
			triggers = append(triggers, res.Stats.TriggersApplied)
		}
		if outcomes[1] != outcomes[0] {
			t.Logf("outcomes differ across rule orders on:\n%s", rs)
			return false
		}
		if outcomes[0] == Terminated && triggers[1] != triggers[0] {
			t.Logf("trigger counts differ on terminating set:\n%s", rs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
