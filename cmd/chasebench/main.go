// Command chasebench regenerates the experiment suite of EXPERIMENTS.md:
// one table or scaling series per theorem/claim of "Chase Termination for
// Guarded Existential Rules" (Calautti, Gottlob, Pieris; PODS 2015). See
// DESIGN.md §4 for the experiment index.
//
// Usage:
//
//	chasebench [-quick] [-run e1,e3,...]   (default: all experiments)
//	chasebench -bench [-quick] [-label s] [-o BENCH_chase.json]
//	chasebench -check BENCH_chase.json
//
// The default mode prints GitHub-flavoured markdown experiment tables on
// stdout. -bench instead runs the tracked hot-path benchmark suite and
// emits the chasebench/v1 JSON report (see BENCH_chase.json at the repo
// root for the committed perf trajectory); -check validates such a report
// structurally and exits non-zero on schema violations.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"chaseterm/internal/acyclicity"
	"chaseterm/internal/chase"
	"chaseterm/internal/core"
	"chaseterm/internal/critical"
	"chaseterm/internal/logic"
	"chaseterm/internal/looping"
	"chaseterm/internal/parse"
	"chaseterm/internal/workload"
)

type experiment struct {
	id    string
	title string
	run   func(w io.Writer, quick bool) error
}

var experiments = []experiment{
	{"e1", "Example 1 — the chase may run forever", runE1},
	{"e2", "Example 2 — a single non-terminating sequence", runE2},
	{"e3", "Theorem 1 (SL, semi-oblivious): CT^so ∩ SL = WA ∩ SL", runE3},
	{"e4", "Theorem 1 (SL, oblivious): CT^o ∩ SL = RA ∩ SL", runE4},
	{"e5", "Theorem 2 (L): critical acyclicity vs plain WA/RA", runE5},
	{"e6", "Theorem 3(1): SL decision scales like reachability (NL)", runE6},
	{"e7", "Theorem 3(2): linear decision vs arity (PSPACE) and vs rules at fixed arity (NL)", runE7},
	{"e8", "Theorem 4 (G): guarded decider — agreement and scaling", runE8},
	{"e9", "Looping operator: entailment → complement of termination", runE9},
	{"e10", "Chase anatomy: oblivious vs semi-oblivious vs restricted", runE10},
	{"e11", "Containments: CT^o ⊆ CT^so, RA ⊆ WA, SL ⊆ L ⊆ G", runE11},
	{"e12", "aux-transformation: CT^o(Σ) = CT^so(aux(Σ))", runE12},
	{"e13", "Restricted chase: the ∀-sequence/∃-sequence gap (§2/§4)", runE13},
	{"e14", "Criteria ladder: RA ⊆ WA ⊆ JA ⊆ exact — coverage on random linear sets", runE14},
}

func main() {
	quick := flag.Bool("quick", false, "smaller workloads (CI-friendly)")
	runList := flag.String("run", "", "comma-separated experiment ids (default: all)")
	bench := flag.Bool("bench", false, "run the tracked benchmark suite and emit chasebench/v1 JSON")
	benchOut := flag.String("o", "", "with -bench: write the JSON report to this file (default stdout)")
	benchLabel := flag.String("label", "current", "with -bench: label recorded for the run")
	check := flag.String("check", "", "validate a chasebench/v1 JSON report and exit")
	flag.Parse()
	if *check != "" {
		if err := checkBenchReport(*check); err != nil {
			fmt.Fprintf(os.Stderr, "chasebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid chasebench/v1 report\n", *check)
		return
	}
	if *bench {
		out := io.Writer(os.Stdout)
		if *benchOut != "" {
			f, err := os.Create(*benchOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chasebench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := runBenchSuite(out, *quick, *benchLabel); err != nil {
			fmt.Fprintf(os.Stderr, "chasebench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	want := map[string]bool{}
	if *runList != "" {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("## %s — %s\n\n", strings.ToUpper(e.id), e.title)
		if err := e.run(os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "chasebench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func decideLin(rs *logic.RuleSet, v core.ChaseVariant) core.Answer {
	res, err := core.DecideLinearContext(context.Background(), rs, v, core.Options{})
	if err != nil {
		panic(err)
	}
	return res.Verdict.Answer
}

func oracle(rs *logic.RuleSet, v chase.Variant, budget int) core.Answer {
	res, err := critical.OracleContext(context.Background(), rs, v, chase.Options{MaxTriggers: budget, MaxFacts: budget})
	if err != nil {
		panic(err)
	}
	if res.Outcome == chase.Terminated {
		return core.Terminating
	}
	return core.NonTerminating
}

// ---------------------------------------------------------------------------

func runE1(w io.Writer, quick bool) error {
	rules := workload.Example1()
	db := workload.Example1DB()
	fmt.Fprintf(w, "Rule: `%s`; database `person(bob)`.\n\n", rules.Rules[0])
	fmt.Fprintln(w, "| variant | triggers applied | facts derived | outcome |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, v := range []chase.Variant{chase.Oblivious, chase.SemiOblivious, chase.Restricted} {
		res, err := chase.RunFromAtomsContext(context.Background(), db, rules, v, chase.Options{MaxTriggers: 1000})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %s | %d | %d | %s |\n", v, res.Stats.TriggersApplied, res.Stats.FactsAdded, res.Outcome)
	}
	v, err := core.DecideContext(context.Background(), rules, core.VariantSemiOblivious, core.DecideOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nExact decision (CT^so): **%s** by %s.\n", v.Answer, v.Method)
	return nil
}

func runE2(w io.Writer, quick bool) error {
	rules := workload.Example2()
	db := workload.Example2DB()
	fmt.Fprintf(w, "Rule: `%s`; database `p(a,b)`.\n\n", rules.Rules[0])
	fmt.Fprintln(w, "Growth of the (unique) chase sequence — |I_i| = 1 + i, matching the paper:")
	fmt.Fprintln(w, "\n| steps i | facts |")
	fmt.Fprintln(w, "|---|---|")
	for _, steps := range []int{1, 5, 25, 125} {
		res, err := chase.RunFromAtomsContext(context.Background(), db, rules, chase.SemiOblivious, chase.Options{MaxTriggers: steps})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %d | %d |\n", steps, res.Stats.InitialFacts+res.Stats.FactsAdded)
	}
	for _, cv := range []core.ChaseVariant{core.VariantOblivious, core.VariantSemiOblivious} {
		fmt.Fprintf(w, "\nCT^%s: **%s**.", cv, decideLin(rules, cv))
	}
	fmt.Fprintln(w)
	return nil
}

func slAgreement(w io.Writer, quick bool, variant core.ChaseVariant) error {
	n := 3000
	if quick {
		n = 300
	}
	rng := rand.New(rand.NewSource(11))
	acyc, agreeAcyc, agreeOracle, terminating := 0, 0, 0, 0
	budget := 6000
	for i := 0; i < n; i++ {
		rs := workload.RandomSL(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3})
		var pos bool
		if variant == core.VariantSemiOblivious {
			pos, _ = acyclicity.IsWeaklyAcyclic(rs)
		} else {
			pos, _ = acyclicity.IsRichlyAcyclic(rs)
		}
		dec := decideLin(rs, variant)
		cv := chase.SemiOblivious
		if variant == core.VariantOblivious {
			cv = chase.Oblivious
		}
		emp := oracle(rs, cv, budget)
		if pos {
			acyc++
		}
		if pos == (dec == core.Terminating) {
			agreeAcyc++
		}
		if emp == dec {
			agreeOracle++
		}
		if dec == core.Terminating {
			terminating++
		}
	}
	name := "WA"
	if variant == core.VariantOblivious {
		name = "RA"
	}
	fmt.Fprintf(w, "| random SL sets | %s holds | decider says terminating | %s = decider | decider = chase oracle |\n", name, name)
	fmt.Fprintln(w, "|---|---|---|---|---|")
	fmt.Fprintf(w, "| %d | %d | %d | %d (%.1f%%) | %d (%.1f%%) |\n",
		n, acyc, terminating, agreeAcyc, 100*float64(agreeAcyc)/float64(n),
		agreeOracle, 100*float64(agreeOracle)/float64(n))
	fmt.Fprintf(w, "\nExpected: both agreement columns 100%% (Theorem 1).\n")
	return nil
}

func runE3(w io.Writer, quick bool) error { return slAgreement(w, quick, core.VariantSemiOblivious) }
func runE4(w io.Writer, quick bool) error { return slAgreement(w, quick, core.VariantOblivious) }

func runE5(w io.Writer, quick bool) error {
	n := 3000
	if quick {
		n = 300
	}
	rng := rand.New(rand.NewSource(12))
	waWrong, raWrong, agreeSO, agreeO := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		rs := workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 3, NumRules: 3, RepeatProb: 0.5})
		so := decideLin(rs, core.VariantSemiOblivious)
		o := decideLin(rs, core.VariantOblivious)
		if wa, _ := acyclicity.IsWeaklyAcyclic(rs); !wa && so == core.Terminating {
			waWrong++
		}
		if ra, _ := acyclicity.IsRichlyAcyclic(rs); !ra && o == core.Terminating {
			raWrong++
		}
		if oracle(rs, chase.SemiOblivious, 6000) == so {
			agreeSO++
		}
		if oracle(rs, chase.Oblivious, 6000) == o {
			agreeO++
		}
	}
	fmt.Fprintln(w, "| random L sets | WA too weak (false alarm) | RA too weak | critical-WA = oracle | critical-RA = oracle |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	fmt.Fprintf(w, "| %d | %d | %d | %d (%.1f%%) | %d (%.1f%%) |\n",
		n, waWrong, raWrong, agreeSO, 100*float64(agreeSO)/float64(n), agreeO, 100*float64(agreeO)/float64(n))
	fmt.Fprintf(w, "\nExpected: positive counts in the first two columns (plain acyclicity is\n"+
		"incomplete on L — the paper's motivation for Theorem 2) and 100%% in the last two.\n")
	fmt.Fprintf(w, "\nCanonical witness: `p(X,X) -> p(X,Z)` — not WA, yet CT^so: **%s**.\n",
		decideLin(mustRules(`p(X,X) -> p(X,Z).`), core.VariantSemiOblivious))
	return nil
}

func runE6(w io.Writer, quick bool) error {
	sizes := []int{4, 16, 64, 256, 1024}
	if quick {
		sizes = []int{4, 16, 64}
	}
	fmt.Fprintln(w, "| rules n | shapes | decision time (cycle closed) | verdict | time (open chain) | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, n := range sizes {
		closed := workload.SLFamily(n, true)
		open := workload.SLFamily(n, false)
		t0 := time.Now()
		rc, err := core.DecideLinearContext(context.Background(), closed, core.VariantSemiOblivious, core.Options{})
		if err != nil {
			return err
		}
		dtClosed := time.Since(t0)
		t0 = time.Now()
		ro, err := core.DecideLinearContext(context.Background(), open, core.VariantSemiOblivious, core.Options{})
		if err != nil {
			return err
		}
		dtOpen := time.Since(t0)
		fmt.Fprintf(w, "| %d | %d | %v | %s | %v | %s |\n",
			n, rc.Verdict.ShapeCount, dtClosed.Round(time.Microsecond), rc.Verdict.Answer,
			dtOpen.Round(time.Microsecond), ro.Verdict.Answer)
	}
	fmt.Fprintln(w, "\nExpected: near-linear growth in n — the decision is graph reachability (NL).")
	return nil
}

func runE7(w io.Writer, quick bool) error {
	arities := []int{2, 3, 4, 5, 6, 7}
	if quick {
		arities = []int{2, 3, 4, 5}
	}
	fmt.Fprintln(w, "Arity sweep (one predicate of arity w, rotation + merge rules):")
	fmt.Fprintln(w, "\n| arity w | reachable shapes | decision time | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, arity := range arities {
		rs := workload.LinearArityFamily(arity)
		t0 := time.Now()
		res, err := core.DecideLinearContext(context.Background(), rs, core.VariantSemiOblivious, core.Options{MaxShapes: 5_000_000})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %d | %d | %v | %s |\n",
			arity, res.Verdict.ShapeCount, time.Since(t0).Round(time.Microsecond), res.Verdict.Answer)
	}
	fmt.Fprintln(w, "\nFixed arity 2, growing rule count (bounded-arity NL claim):")
	fmt.Fprintln(w, "\n| rules n | shapes | decision time |")
	fmt.Fprintln(w, "|---|---|---|")
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{8, 32, 128} {
		rs := workload.RandomLinear(rng, workload.Config{NumPreds: 4, MaxArity: 2, NumRules: n, RepeatProb: 0.4})
		t0 := time.Now()
		res, err := core.DecideLinearContext(context.Background(), rs, core.VariantSemiOblivious, core.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %d | %d | %v |\n", n, res.Verdict.ShapeCount, time.Since(t0).Round(time.Microsecond))
	}
	fmt.Fprintln(w, "\nExpected: exponential growth in w (PSPACE-shaped), polynomial in n at fixed arity.")
	return nil
}

func runE8(w io.Writer, quick bool) error {
	n := 1500
	if quick {
		n = 150
	}
	rng := rand.New(rand.NewSource(14))
	agree, terminating := 0, 0
	for i := 0; i < n; i++ {
		rs := workload.RandomGuarded(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3, MaxSideAtoms: 2})
		res, err := core.DecideGuardedContext(context.Background(), rs, core.Options{})
		if err != nil {
			return err
		}
		if res.Answer == core.Terminating {
			terminating++
		}
		if oracle(rs, chase.SemiOblivious, 6000) == res.Answer {
			agree++
		}
	}
	fmt.Fprintln(w, "| random G sets | decider terminating | decider = chase oracle |")
	fmt.Fprintln(w, "|---|---|---|")
	fmt.Fprintf(w, "| %d | %d | %d (%.1f%%) |\n", n, terminating, agree, 100*float64(agree)/float64(n))

	fmt.Fprintln(w, "\nScaling with guard arity (gate family, terminating):")
	fmt.Fprintln(w, "\n| arity w | node types | decision time |")
	fmt.Fprintln(w, "|---|---|---|")
	arities := []int{1, 2, 3}
	if !quick {
		arities = append(arities, 4)
	}
	for _, arity := range arities {
		rs := workload.GuardedArityFamily(arity)
		t0 := time.Now()
		res, err := core.DecideGuardedContext(context.Background(), rs, core.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %d | %d | %v |\n", arity, res.NodeTypeCount, time.Since(t0).Round(time.Microsecond))
	}
	fmt.Fprintln(w, "\nExpected: 100% agreement (Theorem 4 decidability); steep growth in w\n"+
		"(EXPTIME for bounded arity, 2EXPTIME in general).")
	return nil
}

func runE9(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "| instance | entailed? | looped verdict (CT^so) | correct | decision time |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	type c struct {
		name string
		inst looping.Instance
	}
	ks := []int{2, 8, 32}
	bs := []int{2, 4, 6}
	if quick {
		ks = []int{2, 8}
		bs = []int{2, 4}
	}
	var cases []c
	for _, k := range ks {
		cases = append(cases, c{fmt.Sprintf("chain(%d) yes", k), looping.Chain(k, true)})
		cases = append(cases, c{fmt.Sprintf("chain(%d) no", k), looping.Chain(k, false)})
	}
	for _, b := range bs {
		cases = append(cases, c{fmt.Sprintf("counter(%d)", b), looping.Counter(b)})
	}
	for _, tc := range cases {
		ent, err := looping.EntailedContext(context.Background(), tc.inst, chase.Options{})
		if err != nil {
			return err
		}
		looped, err := looping.Loop(tc.inst)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := core.DecideLinearContext(context.Background(), looped, core.VariantSemiOblivious, core.Options{MaxShapes: 5_000_000})
		if err != nil {
			return err
		}
		dt := time.Since(t0)
		correct := (res.Verdict.Answer == core.NonTerminating) == ent
		fmt.Fprintf(w, "| %s | %v | %s | %v | %v |\n", tc.name, ent, res.Verdict.Answer, correct, dt.Round(time.Microsecond))
	}
	fmt.Fprintln(w, "\nExpected: `correct` everywhere — termination is the complement of entailment\n"+
		"(the paper's looping-operator reduction), with counter time growing in b.")
	return nil
}

func runE10(w io.Writer, quick bool) error {
	scenarios := []struct {
		name  string
		rules *logic.RuleSet
		db    []logic.Atom
	}{
		{"ontology (DL-Lite-style, SL)", workload.OntologySL(), workload.OntologyDB()},
		{"data exchange (Fagin et al. style)", workload.DataExchange(), workload.DataExchangeDB()},
	}
	fmt.Fprintln(w, "| scenario | variant | triggers | no-op triggers | satisfied-skip | facts |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, sc := range scenarios {
		for _, v := range []chase.Variant{chase.Oblivious, chase.SemiOblivious, chase.Restricted} {
			res, err := chase.RunFromAtomsContext(context.Background(), sc.db, sc.rules, v, chase.Options{})
			if err != nil {
				return err
			}
			if res.Outcome != chase.Terminated {
				return fmt.Errorf("%s/%s did not terminate", sc.name, v)
			}
			fmt.Fprintf(w, "| %s | %s | %d | %d | %d | %d |\n", sc.name, v,
				res.Stats.TriggersApplied, res.Stats.TriggersNoop, res.Stats.TriggersSatisfied,
				res.Stats.InitialFacts+res.Stats.FactsAdded)
		}
	}
	fmt.Fprintln(w, "\nExpected: semi-oblivious ≤ oblivious in triggers and facts (it skips the\n"+
		"\"superfluous\" triggers of §2); restricted smallest.")
	return nil
}

func runE11(w io.Writer, quick bool) error {
	n := 2000
	if quick {
		n = 200
	}
	rng := rand.New(rand.NewSource(15))
	ctViol, raViol, clsViol := 0, 0, 0
	for i := 0; i < n; i++ {
		rs := workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3, RepeatProb: 0.3})
		o := decideLin(rs, core.VariantOblivious)
		so := decideLin(rs, core.VariantSemiOblivious)
		if o == core.Terminating && so != core.Terminating {
			ctViol++
		}
		ra, _ := acyclicity.IsRichlyAcyclic(rs)
		wa, _ := acyclicity.IsWeaklyAcyclic(rs)
		if ra && !wa {
			raViol++
		}
		for _, r := range rs.Rules {
			if r.IsSimpleLinear() && !r.IsLinear() || r.IsLinear() && !r.IsGuarded() {
				clsViol++
			}
		}
	}
	fmt.Fprintln(w, "| random sets | CT^o ⊆ CT^so violations | RA ⊆ WA violations | SL ⊆ L ⊆ G violations |")
	fmt.Fprintln(w, "|---|---|---|---|")
	fmt.Fprintf(w, "| %d | %d | %d | %d |\n", n, ctViol, raViol, clsViol)
	fmt.Fprintln(w, "\nExpected: all zero.")
	return nil
}

func runE12(w io.Writer, quick bool) error {
	n := 1500
	if quick {
		n = 150
	}
	rng := rand.New(rand.NewSource(16))
	agreeLin, agreeG := 0, 0
	nG := n / 3
	for i := 0; i < n; i++ {
		rs := workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3, RepeatProb: 0.3})
		direct := decideLin(rs, core.VariantOblivious)
		viaAux := decideLin(critical.AuxTransform(rs), core.VariantSemiOblivious)
		if direct == viaAux {
			agreeLin++
		}
	}
	for i := 0; i < nG; i++ {
		rs := workload.RandomGuarded(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 2, MaxSideAtoms: 1})
		res, err := core.DecideGuardedContext(context.Background(), critical.AuxTransform(rs), core.Options{})
		if err != nil {
			return err
		}
		if oracle(rs, chase.Oblivious, 6000) == res.Answer {
			agreeG++
		}
	}
	fmt.Fprintln(w, "| linear sets | direct-o = so∘aux | guarded sets | aux-decider = o-oracle |")
	fmt.Fprintln(w, "|---|---|---|---|")
	fmt.Fprintf(w, "| %d | %d (%.1f%%) | %d | %d (%.1f%%) |\n",
		n, agreeLin, 100*float64(agreeLin)/float64(n),
		nG, agreeG, 100*float64(agreeG)/float64(nG))
	fmt.Fprintln(w, "\nExpected: 100% in both agreement columns.")
	return nil
}

func runE13(w io.Writer, quick bool) error {
	rules := mustRules("r(X,Y) -> r(Y,Z).\nr(X,Y) -> r(Y,X).")
	db := parse.MustParseFacts(`r(a,b).`)
	fmt.Fprintln(w, "Σ = { r(X,Y)→∃Z r(Y,Z),  r(X,Y)→r(Y,X) },  D = { r(a,b) }.")
	res, err := chase.RunFromAtomsContext(context.Background(), db, rules, chase.Restricted,
		chase.Options{MaxTriggers: 2000})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n| schedule | outcome | triggers applied | facts |")
	fmt.Fprintln(w, "|---|---|---|---|")
	fmt.Fprintf(w, "| FIFO (fair) | %s | %d | %d |\n", res.Outcome,
		res.Stats.TriggersApplied, res.Stats.InitialFacts+res.Stats.FactsAdded)
	exp, err := chase.ExploreRestrictedTermination(db, rules, chase.ExploreOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nSequence search: terminating sequence found = %v (trace %v, %d states).\n",
		exp.Found, exp.Trace, exp.StatesExplored)
	fmt.Fprintln(w, "\nExpected: the fair FIFO run diverges while the search finds a terminating")
	fmt.Fprintln(w, "repair-first sequence — the restricted chase separates the paper's")
	fmt.Fprintln(w, "∀-sequence and ∃-sequence problems (they coincide for o/so).")
	return nil
}

func runE14(w io.Writer, quick bool) error {
	n := 3000
	if quick {
		n = 300
	}
	rng := rand.New(rand.NewSource(17))
	var ra, wa, ja, exact, nonterm int
	for i := 0; i < n; i++ {
		rs := workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 3, NumRules: 3, RepeatProb: 0.4})
		so := decideLin(rs, core.VariantSemiOblivious)
		if so == core.Terminating {
			exact++
		} else {
			nonterm++
		}
		if ok, _ := acyclicity.IsRichlyAcyclic(rs); ok {
			ra++
		}
		if ok, _ := acyclicity.IsWeaklyAcyclic(rs); ok {
			wa++
		}
		if ok, _ := acyclicity.IsJointlyAcyclic(rs); ok {
			ja++
		}
	}
	fmt.Fprintln(w, "Terminating sets recognized, out of", n, "random linear sets:")
	fmt.Fprintln(w, "\n| criterion | recognizes | share of truly CT^so |")
	fmt.Fprintln(w, "|---|---|---|")
	pct := func(k int) string { return fmt.Sprintf("%.1f%%", 100*float64(k)/float64(exact)) }
	fmt.Fprintf(w, "| rich acyclicity (⇒ CT^o) | %d | %s |\n", ra, pct(ra))
	fmt.Fprintf(w, "| weak acyclicity | %d | %s |\n", wa, pct(wa))
	fmt.Fprintf(w, "| joint acyclicity | %d | %s |\n", ja, pct(ja))
	fmt.Fprintf(w, "| critical-WA (exact, Thm 2) | %d | 100.0%% |\n", exact)
	fmt.Fprintf(w, "\n(%d of the %d sets are not in CT^so at all.)\n", nonterm, n)
	fmt.Fprintln(w, "\nExpected: a strictly increasing ladder RA ≤ WA ≤ JA ≤ exact — each")
	fmt.Fprintln(w, "refinement recognizes more of the terminating sets, the exact decider all.")
	return nil
}

func mustRules(src string) *logic.RuleSet {
	return parse.MustParseRules(src)
}
