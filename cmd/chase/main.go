// Command chase runs a chase variant over a database and a rule set.
//
// Usage:
//
//	chase [-variant o|so|r] [-max-triggers N] [-max-facts N]
//	      [-print] [-stream] [-stats] [-precheck] rules.dl db.dl
//
// Files use the Datalog± syntax of the library: `body -> head.` rules with
// upper-case variables, and ground facts `p(a,b).`. The tool prints run
// statistics and, with -print, the final instance. With -stream, derived
// facts are printed incrementally as the run produces them — useful for
// watching a long chase make progress, and for piping a huge instance
// without holding it rendered in memory twice. With -stats, the report's
// per-stage timings and full engine counter set are printed as well.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chaseterm"
)

func main() {
	variant := flag.String("variant", "so", "chase variant: o|so|r (oblivious, semi-oblivious, restricted)")
	maxTriggers := flag.Int("max-triggers", 100000, "trigger budget (0 = default)")
	maxFacts := flag.Int("max-facts", 100000, "fact budget (0 = default)")
	printFacts := flag.Bool("print", false, "print the final instance")
	stream := flag.Bool("stream", false, "print derived facts incrementally as the run produces them")
	stats := flag.Bool("stats", false, "print per-stage timings and engine counters from the report")
	precheck := flag.Bool("precheck", false, "run the termination portfolio on the rules before chasing and report whether the run is guaranteed to terminate")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: chase [flags] rules.dl db.dl\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	// Ctrl-C / SIGTERM stops the run cooperatively; the partial stats up
	// to the interruption are still reported (outcome "canceled").
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// After the first signal, restore default handling so a second
	// Ctrl-C force-kills even while -print renders a huge partial
	// instance.
	go func() { <-ctx.Done(); stop() }()
	if err := run(ctx, *variant, flag.Arg(0), flag.Arg(1), *maxTriggers, *maxFacts, *printFacts, *stream, *stats, *precheck); err != nil {
		if errors.Is(err, context.Canceled) {
			// Partial stats were already printed; exit with the
			// conventional interrupted status so wrappers stop too.
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "chase:", err)
		os.Exit(1)
	}
}

// printSink streams derived facts to stdout as the engine produces
// them (the -stream flag).
type printSink struct{}

func (printSink) EmitFacts(facts []string, _ chaseterm.ChaseStats) {
	for _, f := range facts {
		fmt.Println(f + ".")
	}
}

func (printSink) Progress(chaseterm.ChaseStats) {}

func run(ctx context.Context, variantName, rulesPath, dbPath string, maxTriggers, maxFacts int, printFacts, stream, stats, precheck bool) error {
	v, err := chaseterm.ParseVariant(variantName)
	if err != nil {
		return err
	}
	rulesText, err := os.ReadFile(rulesPath)
	if err != nil {
		return err
	}
	rules, err := chaseterm.ParseRules(string(rulesText))
	if err != nil {
		return err
	}
	dbText, err := os.ReadFile(dbPath)
	if err != nil {
		return err
	}
	db, err := chaseterm.ParseDatabase(string(dbText))
	if err != nil {
		return err
	}
	fmt.Printf("rules: %d (%s), database: %d facts, variant: %s\n",
		rules.NumRules(), rules.Classify(), db.Size(), v)
	var analyzer chaseterm.Analyzer
	if precheck {
		if err := runPrecheck(ctx, &analyzer, rules, v); err != nil {
			return err
		}
	}
	opts := []chaseterm.RequestOption{
		chaseterm.WithDatabase(db),
		chaseterm.WithVariant(v),
		chaseterm.WithChaseBudgets(chaseterm.ChaseOptions{
			MaxTriggers: maxTriggers,
			MaxFacts:    maxFacts,
		}),
	}
	if stream {
		opts = append(opts, chaseterm.WithChaseSink(printSink{}))
	}
	rep, err := analyzer.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeChase, rules, opts...))
	if rep == nil {
		return err
	}
	res := rep.Chase
	fmt.Printf("outcome: %s\n", res.Outcome)
	s := res.Stats
	fmt.Printf("facts: %d initial + %d derived\n", s.InitialFacts, s.FactsAdded)
	fmt.Printf("triggers: %d applied, %d no-op, %d already satisfied\n",
		s.TriggersApplied, s.TriggersNoop, s.TriggersSatisfied)
	fmt.Printf("max invented-term depth: %d\n", s.MaxTermDepth)
	if stats {
		printReportStats(rep)
	}
	switch res.Outcome {
	case chaseterm.Terminated:
	case chaseterm.Canceled:
		fmt.Println("note: interrupted — stats cover the work done before cancellation")
	default:
		fmt.Println("note: budget hit — the run may or may not be terminating;" +
			" use termcheck for an exact decision")
	}
	if printFacts {
		for _, f := range res.Facts() {
			fmt.Println(f + ".")
		}
	}
	// err is non-nil exactly when the run was canceled: the stats above
	// are the partial picture, and the caller still needs to see the
	// interruption (a wrapper script must not mistake it for success).
	return err
}

// runPrecheck runs the all-instance termination portfolio on the rules
// before any chasing, so the user learns up front whether the run ahead
// is guaranteed to finish or is gambling against the trigger budget.
// The answer is advisory: "non-terminating" and "unknown" speak about
// SOME database, so the chase still runs — this database may be fine.
func runPrecheck(ctx context.Context, analyzer *chaseterm.Analyzer, rules *chaseterm.RuleSet, v chaseterm.Variant) error {
	rep, err := analyzer.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules,
		chaseterm.WithVariant(v)))
	if err != nil {
		return err
	}
	decidedBy := ""
	if rep.Verdict.DecidedBy != "" {
		decidedBy = " (decided by " + rep.Verdict.DecidedBy + ")"
	}
	fmt.Printf("precheck: all-instance termination is %s%s\n", rep.Verdict.Terminates, decidedBy)
	if rep.Verdict.Terminates != chaseterm.Yes {
		fmt.Println("precheck: the verdict quantifies over all databases — this run may still terminate")
	}
	return nil
}

// printReportStats renders the -stats section: the report's per-stage
// elapsed times and, for chase runs, the engine's full counter set
// (including the enqueue count the summary lines above leave out).
func printReportStats(rep *chaseterm.Report) {
	t := rep.Timings
	fmt.Printf("timings: classify %s, chase %s, render %s, total %s\n",
		fmtDur(t.Classify), fmtDur(t.Chase), fmtDur(t.Render), fmtDur(t.Total))
	if e := rep.Engine; e != nil {
		fmt.Printf("engine: %d triggers enqueued, %d applied, %d no-op, %d satisfied\n",
			e.TriggersEnqueued, e.TriggersApplied, e.TriggersNoop, e.TriggersSatisfied)
		fmt.Printf("engine: %d facts initial, %d derived, max term depth %d\n",
			e.InitialFacts, e.FactsAdded, e.MaxTermDepth)
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
