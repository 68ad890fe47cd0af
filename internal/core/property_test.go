package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"chaseterm/internal/chase"
	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
	"chaseterm/internal/parse"
	"chaseterm/internal/workload"
)

// TestQuickCanonicalizationInvariance: the guarded decider's node-type
// canonicalization must be invariant under renaming of null slots — the
// property the memoization's soundness rests on. We build random seeds,
// apply a random permutation of the nulls, and require identical canonical
// keys.
func TestQuickCanonicalizationInvariance(t *testing.T) {
	d := &guardedDecider{
		opt:       Options{}.withDefaults(),
		npred:     3,
		predName:  []string{"p", "q", "r"},
		nc:        2, // two "constants": ids 0, 1
		constName: []string{"✶", "0"},
	}
	predArity := []int{2, 1, 3}
	f := func(seedVal int64) bool {
		rng := rand.New(rand.NewSource(seedVal))
		nulls := 1 + rng.Intn(5)
		n := d.nc + nulls
		seed := &gSeed{nulls: nulls}
		natoms := 1 + rng.Intn(6)
		for i := 0; i < natoms; i++ {
			p := rng.Intn(d.npred)
			args := make([]instance.TermID, predArity[p])
			for j := range args {
				args[j] = instance.TermID(rng.Intn(n))
			}
			seed.atoms.Insert(int32(p), args)
		}
		for i := 0; i < rng.Intn(4); i++ {
			tl := rng.Intn(3)
			tuple := make([]instance.TermID, tl)
			for j := range tuple {
				tuple[j] = instance.TermID(rng.Intn(n))
			}
			seed.recs.Insert(int32(rng.Intn(2)), tuple)
		}
		key1, _ := d.canonicalize(seed)

		// Random permutation of the null ids.
		perm := make([]instance.TermID, n)
		for i := 0; i < d.nc; i++ {
			perm[i] = instance.TermID(i)
		}
		order := rng.Perm(nulls)
		for i := 0; i < nulls; i++ {
			perm[d.nc+i] = instance.TermID(d.nc + order[i])
		}
		permuted := &gSeed{nulls: nulls}
		d.inherit(&permuted.atoms, &seed.atoms, perm)
		d.inherit(&permuted.recs, &seed.recs, perm)
		key2, _ := d.canonicalize(permuted)
		return key1 == key2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickDecideLinearRenamingInvariance: the linear decider's verdict
// must not depend on variable names or rule order.
func TestQuickDecideLinearRenamingInvariance(t *testing.T) {
	f := func(seedVal int64) bool {
		rng := rand.New(rand.NewSource(seedVal))
		rs := workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3, RepeatProb: 0.3})
		base, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{})
		if err != nil {
			return false
		}
		// Rename all variables per rule.
		renamed := logic.NewRuleSet()
		for _, r := range rs.Rules {
			ren := make(map[logic.Variable]logic.Variable)
			for i, v := range r.BodyVariables() {
				ren[v] = logic.Variable(string(rune('A' + i%26)))
			}
			for i, v := range r.HeadVariables() {
				if _, ok := ren[v]; !ok {
					ren[v] = logic.Variable("E" + string(rune('0'+i%10)))
				}
			}
			renamed.Rules = append(renamed.Rules, r.Rename(ren))
		}
		// Reverse the rule order too.
		for i, j := 0, len(renamed.Rules)-1; i < j; i, j = i+1, j-1 {
			renamed.Rules[i], renamed.Rules[j] = renamed.Rules[j], renamed.Rules[i]
		}
		got, err := DecideLinearContext(context.Background(), renamed, chase.SemiOblivious, Options{})
		if err != nil {
			return false
		}
		return got.Verdict.Answer == base.Verdict.Answer
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickGuardedIdempotent: deciding twice yields identical verdicts and
// type counts (the global fixpoint is deterministic).
func TestQuickGuardedIdempotent(t *testing.T) {
	f := func(seedVal int64) bool {
		rng := rand.New(rand.NewSource(seedVal))
		rs := workload.RandomGuarded(rng, workload.Config{NumPreds: 2, MaxArity: 2, NumRules: 2})
		a, err := DecideGuardedContext(context.Background(), rs, chase.SemiOblivious, Options{})
		if err != nil {
			return false
		}
		b, err := DecideGuardedContext(context.Background(), rs, chase.SemiOblivious, Options{})
		if err != nil {
			return false
		}
		return a.Answer == b.Answer &&
			a.NodeTypeCount == b.NodeTypeCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickShapeBudget: the shape cap must be respected with a clean error
// rather than unbounded growth.
func TestShapeBudgetError(t *testing.T) {
	rs := parse.MustParseRules(`p(X,Y) -> p(Y,Z).`)
	_, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{MaxShapes: 1})
	if err == nil {
		t.Error("shape budget not enforced")
	}
}

// TestNodeTypeBudgetError: same for the guarded decider.
func TestNodeTypeBudgetError(t *testing.T) {
	rs := parse.MustParseRules(`g(X,Y) -> g(Y,Z).`)
	_, err := DecideGuardedContext(context.Background(), rs, chase.SemiOblivious, Options{MaxNodeTypes: 1})
	if err == nil {
		t.Error("node-type budget not enforced")
	}
}
