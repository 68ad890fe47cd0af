// Command termcheck decides all-instance chase termination for a rule set
// — the decision problem of "Chase Termination for Guarded Existential
// Rules" (Calautti, Gottlob, Pieris; PODS 2015).
//
// Usage:
//
//	termcheck [-variant o|so|r|all] [-json] [-db db.dl] [-stats] rules.dl
//
// Every decision climbs the termination portfolio: cheap sound criteria
// (positional acyclicity, bounded critical-instance chases) first, then
// the exact procedures — critical-weak/rich acyclicity for linear rule
// sets (Theorems 1–3) and the chase-forest procedure for guarded ones
// (Theorem 4). Outside the guarded class the problem is undecidable and
// the tool reports sound partial answers. The output names the rung
// that decided; -stats adds the full rung trace.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chaseterm"
)

// analyzer is the unified entry point; every decision below goes
// through one Analyze call.
var analyzer chaseterm.Analyzer

// showStats mirrors the -stats flag: print each report's per-stage
// elapsed times (and engine counters when a chase actually ran).
var showStats bool

func main() {
	variant := flag.String("variant", "all", "chase variant: o|so|r|all")
	jsonOut := flag.Bool("json", false, "emit a JSON report instead of text")
	dbPath := flag.String("db", "", "decide termination on this database only (fixed-database mode)")
	flag.BoolVar(&showStats, "stats", false, "print per-stage timings, engine counters and the portfolio rung trace for every decision")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: termcheck [flags] rules.dl\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// Ctrl-C / SIGTERM cancels the in-flight decision cooperatively: the
	// procedures poll the context, so the tool exits promptly instead of
	// grinding on to its search budget.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A second signal force-kills: restore default handling once the
	// first one has started the cooperative cancellation.
	go func() { <-ctx.Done(); stop() }()
	var err error
	switch {
	case *dbPath != "":
		err = runFixedDB(ctx, *variant, flag.Arg(0), *dbPath)
	case *jsonOut:
		err = runJSON(ctx, *variant, flag.Arg(0))
	default:
		err = run(ctx, *variant, flag.Arg(0))
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "termcheck: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "termcheck:", err)
		os.Exit(1)
	}
}

// runFixedDB decides termination of the chase of one specific database.
func runFixedDB(ctx context.Context, variantName, rulesPath, dbPath string) error {
	rules, variants, err := load(variantName, rulesPath)
	if err != nil {
		return err
	}
	text, err := os.ReadFile(dbPath)
	if err != nil {
		return err
	}
	db, err := chaseterm.ParseDatabase(string(text))
	if err != nil {
		return err
	}
	fmt.Printf("rules: %d (%s); database: %d facts — fixed-database decision\n",
		rules.NumRules(), rules.Classify(), db.Size())
	for _, v := range variants {
		rep, err := analyzer.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules,
			chaseterm.WithVariant(v), chaseterm.WithDatabase(db)))
		if err != nil {
			return err
		}
		fmt.Printf("\nchase of this database (%s): %s\n", v, rep.Verdict.Terminates)
		fmt.Printf("  method: %s\n", rep.Verdict.Method)
		if rep.Verdict.Witness != "" {
			fmt.Printf("  witness: %s\n", rep.Verdict.Witness)
		}
		printReportStats(rep)
	}
	return nil
}

// printReportStats renders the -stats lines for one report: stage
// elapsed times always, engine counters when the decision ran a chase.
func printReportStats(rep *chaseterm.Report) {
	if !showStats {
		return
	}
	t := rep.Timings
	fmt.Printf("  timings: classify %s", fmtDur(t.Classify))
	if t.Acyclicity > 0 {
		fmt.Printf(", acyclicity %s", fmtDur(t.Acyclicity))
	}
	if t.Decide > 0 {
		fmt.Printf(", decide %s", fmtDur(t.Decide))
	}
	if t.Chase > 0 {
		fmt.Printf(", chase %s", fmtDur(t.Chase))
	}
	fmt.Printf(", total %s\n", fmtDur(t.Total))
	if e := rep.Engine; e != nil {
		fmt.Printf("  engine: %d triggers enqueued, %d applied, %d no-op, %d satisfied, %d facts derived, max term depth %d\n",
			e.TriggersEnqueued, e.TriggersApplied, e.TriggersNoop, e.TriggersSatisfied, e.FactsAdded, e.MaxTermDepth)
	}
}

// printProvenance renders the provenance block of a decision: the
// deciding rung always, the full rung trace under -stats.
func printProvenance(v *chaseterm.Verdict) {
	if v.DecidedBy != "" {
		fmt.Printf("  decided by: %s\n", v.DecidedBy)
	}
	if !showStats {
		return
	}
	for _, r := range v.Rungs {
		fmt.Printf("  rung %-20s %-15s %s\n", r.Rung, r.Verdict, fmtDur(r.Elapsed))
	}
}

// fmtDur rounds a stage duration for display; sub-10µs stages print as
// their exact value rather than a misleading "0s".
func fmtDur(d time.Duration) string {
	if r := d.Round(10 * time.Microsecond); r != 0 {
		return r.String()
	}
	return d.String()
}

// jsonReport is the machine-readable output of -json.
type jsonReport struct {
	Rules          int                    `json:"rules"`
	Class          string                 `json:"class"`
	MaxArity       int                    `json:"maxArity"`
	RichlyAcyclic  bool                   `json:"richlyAcyclic"`
	WeaklyAcyclic  bool                   `json:"weaklyAcyclic"`
	JointlyAcyclic bool                   `json:"jointlyAcyclic"`
	Verdicts       map[string]jsonVerdict `json:"verdicts"`
}

type jsonVerdict struct {
	Terminates  string     `json:"terminates"`
	Method      string     `json:"method"`
	Witness     string     `json:"witness,omitempty"`
	SearchSpace int        `json:"searchSpace,omitempty"`
	DecidedBy   string     `json:"decidedBy,omitempty"`
	Rungs       []jsonRung `json:"rungs,omitempty"`
}

// jsonRung is one ladder step of a portfolio decision.
type jsonRung struct {
	Name    string  `json:"name"`
	Verdict string  `json:"verdict"`
	Millis  float64 `json:"millis"`
}

func runJSON(ctx context.Context, variantName, rulesPath string) error {
	rules, variants, err := load(variantName, rulesPath)
	if err != nil {
		return err
	}
	// One acyclicity request covers the criteria ladder; its report's
	// classification block fills the schema fields as well.
	base, err := analyzer.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeAcyclicity, rules))
	if err != nil {
		return err
	}
	rep := jsonReport{
		Rules:          base.NumRules,
		Class:          base.Class.String(),
		MaxArity:       base.MaxArity,
		RichlyAcyclic:  base.Acyclicity.RichlyAcyclic,
		WeaklyAcyclic:  base.Acyclicity.WeaklyAcyclic,
		JointlyAcyclic: base.Acyclicity.JointlyAcyclic,
		Verdicts:       map[string]jsonVerdict{},
	}
	for _, v := range variants {
		res, err := analyzer.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules, chaseterm.WithVariant(v)))
		if err != nil {
			return err
		}
		jv := jsonVerdict{
			Terminates:  res.Verdict.Terminates.String(),
			Method:      res.Verdict.Method,
			Witness:     res.Verdict.Witness,
			SearchSpace: res.Verdict.SearchSpace,
			DecidedBy:   res.Verdict.DecidedBy,
		}
		if showStats {
			for _, r := range res.Verdict.Rungs {
				jv.Rungs = append(jv.Rungs, jsonRung{
					Name:    r.Rung,
					Verdict: r.Verdict,
					Millis:  float64(r.Elapsed.Microseconds()) / 1000,
				})
			}
		}
		rep.Verdicts[shortName(v)] = jv
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// load parses the rule file and resolves the variant selection.
func load(variantName, rulesPath string) (*chaseterm.RuleSet, []chaseterm.Variant, error) {
	text, err := os.ReadFile(rulesPath)
	if err != nil {
		return nil, nil, err
	}
	rules, err := chaseterm.ParseRules(string(text))
	if err != nil {
		return nil, nil, err
	}
	if variantName == "all" {
		return rules, []chaseterm.Variant{chaseterm.Oblivious, chaseterm.SemiOblivious, chaseterm.Restricted}, nil
	}
	v, err := chaseterm.ParseVariant(variantName)
	if err != nil {
		return nil, nil, err
	}
	return rules, []chaseterm.Variant{v}, nil
}

func run(ctx context.Context, variantName, rulesPath string) error {
	rules, variants, err := load(variantName, rulesPath)
	if err != nil {
		return err
	}
	base, err := analyzer.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeAcyclicity, rules))
	if err != nil {
		return err
	}
	fmt.Printf("rules: %d, class: %s, max arity: %d\n",
		base.NumRules, base.Class, base.MaxArity)
	fmt.Printf("positional criteria: rich-acyclic=%v weak-acyclic=%v jointly-acyclic=%v\n",
		base.Acyclicity.RichlyAcyclic, base.Acyclicity.WeaklyAcyclic, base.Acyclicity.JointlyAcyclic)
	printReportStats(base)
	for _, v := range variants {
		rep, err := analyzer.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules, chaseterm.WithVariant(v)))
		if err != nil {
			return err
		}
		fmt.Printf("\nCT^%s: %s\n", shortName(v), rep.Verdict.Terminates)
		fmt.Printf("  method: %s\n", rep.Verdict.Method)
		printProvenance(rep.Verdict)
		if rep.Verdict.SearchSpace > 0 {
			fmt.Printf("  search space: %d abstract states\n", rep.Verdict.SearchSpace)
		}
		if rep.Verdict.Witness != "" {
			fmt.Printf("  witness: %s\n", rep.Verdict.Witness)
		}
		printReportStats(rep)
	}
	return nil
}

func shortName(v chaseterm.Variant) string {
	switch v {
	case chaseterm.Oblivious:
		return "o"
	case chaseterm.SemiOblivious:
		return "so"
	default:
		return "restricted"
	}
}
