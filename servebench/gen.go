package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"chaseterm"
	"chaseterm/api"
	"chaseterm/internal/chase"
	"chaseterm/internal/core"
	"chaseterm/internal/logic"
	"chaseterm/internal/workload"
)

// Every input of a run is a pure function of (seed, stream, index), so
// a run can be rebuilt input by input.
const (
	streamPool = iota + 1
	streamRepeat
	streamABox
)

// splitmix is a splitmix64 rand.Source64: seeding it costs nothing,
// unlike rand.NewSource, so every input can own one.
type splitmix struct{ s uint64 }

func (m *splitmix) Uint64() uint64 {
	m.s += 0x9e3779b97f4a7c15
	z := m.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (m *splitmix) Int63() int64 { return int64(m.Uint64() >> 1) }
func (m *splitmix) Seed(s int64) { m.s = uint64(s) }
func rngFor(seed int64, stream, i int) *rand.Rand {
	m := &splitmix{s: uint64(seed)}
	m.s ^= m.Uint64() + uint64(stream)<<48 + uint64(i)
	m.Uint64()
	return rand.New(m)
}

// answer is a reference verdict.
type answer int

const (
	answerOracle  answer = iota // decided by the bounded oracle
	answerTerm                  // terminating by construction
	answerNonTerm               // non-terminating by construction
)

// Family sizes are the ones the experiment suite (cmd/chasebench)
// sweeps: E6 for the simple-linear chain, E7 for the linear arity
// family, E8 for the guarded gate family.
var (
	slSizes        = []int{4, 16, 64, 256, 1024}
	linearArities  = []int{2, 3, 4, 5, 6, 7}
	guardedArities = []int{1, 2, 3, 4}
)

// decideGens are the rule-set generators of the decide workloads, in
// equal shares: pool entry j comes from generator j mod 7. Random sets
// use the configuration of the experiment that studies their class (E3
// simple-linear, E5 linear, E8 guarded, and the TBox generator of the
// scale_ontology micro-benchmark); a family cycles through its sizes,
// and the closed and open simple-linear chains alternate.
var decideGens = []struct {
	name  string
	sizes int
}{
	{"sl", 1}, {"linear", 1}, {"guarded", 1}, {"inclusion", 1},
	{"sl-family", 2 * len(slSizes)}, {"linear-family", len(linearArities)}, {"guarded-family", len(guardedArities)},
}

// ruleItem is one entry of the decide pool. Its text is kept split
// where each predicate name ends, so a tag can be spliced in there:
// every decide_fresh request tags the predicates with its own index,
// which gives it a fingerprint no other request has.
type ruleItem struct {
	gen       int
	variant   string // "so" or "o"
	portfolio bool
	expect    answer
	pieces    []string
}

func (it *ruleItem) text(tag string) string { return strings.Join(it.pieces, tag) }

func (it *ruleItem) request(tag string) api.AnalyzeRequest {
	return api.AnalyzeRequest{Kind: api.KindDecide, Rules: it.text(tag), Variant: it.variant, Portfolio: it.portfolio}
}

// poolTag is the tag of pool entry j in decide_repeat.
func poolTag(j int) string { return "_" + strconv.Itoa(j) }

// tagSlot marks where a tag goes; no generator names a predicate with it.
const tagSlot = "\x00"

// poolEntry draws entry j of the decide pool and returns it with its
// rule set, untagged. Below the generator, j picks the family size,
// cycling fastest, then the variant and the portfolio flag: one entry
// in four is oblivious (the rest semi-oblivious) and, independently,
// one in four asks for the portfolio ladder.
func poolEntry(seed int64, j int) (ruleItem, *logic.RuleSet) {
	g, rank := j%len(decideGens), j/len(decideGens)
	size, combo := rank%decideGens[g].sizes, rank/decideGens[g].sizes
	it := ruleItem{gen: g, variant: "so", portfolio: (combo/4)%4 == 0}
	if combo%4 == 3 {
		it.variant = "o"
	}
	rng := rngFor(seed, streamPool, j)
	var rs *logic.RuleSet
	switch decideGens[g].name {
	case "sl":
		rs = workload.RandomSL(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3})
	case "linear":
		rs = workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 3, NumRules: 3, RepeatProb: 0.5})
	case "guarded":
		rs = workload.RandomGuarded(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3, MaxSideAtoms: 2})
	case "inclusion":
		rs = workload.RandomInclusionDependencies(rng, 12, 6, 40)
	case "sl-family":
		closed := size%2 == 0
		rs = workload.SLFamily(slSizes[size/2], closed)
		it.expect = answerTerm
		if closed {
			it.expect = answerNonTerm
		}
	case "linear-family":
		rs = workload.LinearArityFamily(linearArities[size])
		it.expect = answerTerm
	default:
		rs = workload.GuardedArityFamily(guardedArities[size])
		it.expect = answerTerm
	}
	it.pieces = strings.Split(renamePredicates(rs, tagSlot).String(), tagSlot)
	return it, rs
}

func renamePredicates(rs *logic.RuleSet, suffix string) *logic.RuleSet {
	ren := func(atoms []logic.Atom) []logic.Atom {
		out := make([]logic.Atom, len(atoms))
		for i, a := range atoms {
			out[i] = logic.Atom{Pred: a.Pred + suffix, Args: a.Args}
		}
		return out
	}
	out := logic.NewRuleSet()
	for _, r := range rs.Rules {
		out.Rules = append(out.Rules, logic.NewTGD(ren(r.Body), ren(r.Head)))
	}
	return out
}

// Popularity in decide_repeat is Zipf over the pool, p(j) ∝ 1/(1+j)^s.
// s is set so that, over the ring repeatRing builds, the 1024-entry LRU
// cache answers about 83% of the requests from memory and the store the
// other 17% (README, Workloads); the run record reports the split each
// run measured.
const zipfS = 1.145

// repeatItem is one disguised decide_repeat request: a Zipf-popular
// pool entry, its rules shuffled and its variables renamed, so the
// server must parse and fingerprint it afresh to find its verdict.
type repeatItem struct {
	j   int
	req api.AnalyzeRequest
}

// repeatRing makes n disguised requests. Requests are sent from the
// ring in order, wrapping around, so a request is encoded before the
// run, not between two timed requests. The ring holds each pool entry
// as often as its Zipf popularity says, rounded the same way for every
// seed (systematic sampling of the popularity distribution at fixed
// points), in an order the seed shuffles: drawing entries at random
// instead would let the share of the largest sets, which dominate time
// and allocation, vary from seed to seed.
func repeatRing(seed int64, pool []ruleItem, n int) []repeatItem {
	cdf := make([]float64, len(pool))
	total := 0.0
	for j := range cdf {
		total += math.Pow(float64(1+j), -zipfS)
		cdf[j] = total
	}
	picks := make([]int, n)
	for r := range picks {
		q := (float64(r) + 0.5) / float64(n) * total
		picks[r] = min(sort.SearchFloat64s(cdf, q), len(pool)-1)
	}
	rngFor(seed, streamRepeat, -1).Shuffle(n, func(a, b int) { picks[a], picks[b] = picks[b], picks[a] })
	rules := map[int]*logic.RuleSet{}
	ring := make([]repeatItem, n)
	for r, j := range picks {
		rng := rngFor(seed, streamRepeat, r)
		rs, ok := rules[j]
		if !ok {
			_, rs = poolEntry(seed, j)
			rs = renamePredicates(rs, poolTag(j))
			rules[j] = rs
		}
		req := pool[j].request("")
		req.Rules = disguise(rng, rs)
		ring[r] = repeatItem{j: j, req: req}
	}
	return ring
}

func disguise(rng *rand.Rand, rs *logic.RuleSet) string {
	rules := append([]*logic.TGD(nil), rs.Rules...)
	rng.Shuffle(len(rules), func(a, b int) { rules[a], rules[b] = rules[b], rules[a] })
	var b strings.Builder
	salt := rng.Intn(1 << 20)
	for _, r := range rules {
		ren := map[logic.Variable]logic.Variable{}
		for _, v := range append(r.BodyVariables(), r.HeadVariables()...) {
			if _, ok := ren[v]; !ok {
				ren[v] = logic.Variable(fmt.Sprintf("V%d_%x", len(ren), salt))
			}
		}
		b.WriteString(r.Rename(ren).String())
		b.WriteString(".\n")
	}
	return b.String()
}

// tbox is one certified-terminating DL-Lite TBox of chase_materialize.
type tbox struct {
	rules *logic.RuleSet
	text  string
}

// pickTBoxes chooses n TBoxes the way chasebench's scale_ontology does,
// from the same fixed seed, so the first one is that benchmark's TBox: a
// random 40-axiom inclusion-dependency set is kept only if the exact
// linear decider certifies semi-oblivious termination and a 2000-fact
// trial ABox derives at least 2000 facts without exhausting a 120k
// budget. The TBoxes are the same in every run; the run's seed draws
// the ABoxes.
func pickTBoxes(ctx context.Context, n int) ([]tbox, error) {
	rng := rand.New(rand.NewSource(26))
	var out []tbox
	for len(out) < n {
		rs := workload.RandomInclusionDependencies(rng, 12, 6, 40)
		dres, err := core.DecideLinearContext(ctx, rs, core.VariantSemiOblivious, core.Options{})
		if err != nil {
			return nil, err
		}
		if dres.Verdict.Answer != core.Terminating {
			continue
		}
		trial, err := chase.RunFromAtomsContext(ctx, workload.RandomABox(rng, rs, 2000, 300), rs, chase.SemiOblivious,
			chase.Options{MaxFacts: 120_000, MaxTriggers: 120_000})
		if err != nil {
			return nil, err
		}
		if trial.Outcome == chase.Terminated && trial.Stats.FactsAdded >= 2000 {
			out = append(out, tbox{rules: rs, text: rs.String()})
		}
	}
	return out, nil
}

// chaseItem is one chase_materialize request and the fact sets a
// correct answer delivers.
type chaseItem struct {
	tbox       int
	dbText     string
	restricted bool
	stream     bool
	// all is the digest of the whole result, database included, and
	// derived that of the derived facts alone, which is what a stream
	// delivers.
	all, derived factDigest
}

// chaseABox draws ring entry k's ABox: TBoxes rotate every four
// entries, and within each group of four every (variant, endpoint)
// pair occurs once. ABox sizes step through 300..3000 by a
// golden-ratio stride, so every stretch of entries covers the range
// evenly.
func chaseABox(seed int64, k int, tboxes []tbox) (chaseItem, []logic.Atom) {
	rng := rngFor(seed, streamABox, k)
	t := (k / 4) % len(tboxes)
	db := workload.RandomABox(rng, tboxes[t].rules, 300+(k*1669)%2701, 300)
	return chaseItem{
		tbox:       t,
		dbText:     atomsText(db),
		restricted: k%2 == 1,
		stream:     (k/2)%2 == 0,
	}, db
}

func (c *chaseItem) variant() string {
	if c.restricted {
		return "r"
	}
	return "so"
}

func (c *chaseItem) request(tboxes []tbox) api.AnalyzeRequest {
	return api.AnalyzeRequest{Kind: api.KindChase, Rules: tboxes[c.tbox].text, Database: c.dbText,
		Variant: c.variant(), ReturnFacts: !c.stream}
}

func atomsText(atoms []logic.Atom) string {
	var b strings.Builder
	for _, a := range atoms {
		b.WriteString(a.String())
		b.WriteString(".\n")
	}
	return b.String()
}

// fingerprintOf is the canonical identity the server must report.
func fingerprintOf(text string) (string, error) {
	rs, err := chaseterm.ParseRules(text)
	if err != nil {
		return "", err
	}
	return rs.Fingerprint(), nil
}
