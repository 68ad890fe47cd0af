package chaseterm_test

import (
	"context"
	"fmt"

	"chaseterm"
)

// The unified entry point: one Analyze call decides termination and
// reports the rule set's class and fingerprinted identity in one
// Report.
func ExampleAnalyzer_Analyze() {
	var analyzer chaseterm.Analyzer
	rules := chaseterm.MustParseRules(`person(X) -> hasFather(X,Y), person(Y).`)
	rep, _ := analyzer.Analyze(context.Background(), chaseterm.NewRequest(
		chaseterm.AnalyzeDecide, rules,
		chaseterm.WithVariant(chaseterm.SemiOblivious),
	))
	fmt.Println(rep.Class)
	fmt.Println(rep.Verdict.Terminates)
	// Output:
	// simple-linear
	// non-terminating
}

// Options compose: attaching a database turns the decision into the
// fixed-database problem, and WithAcyclicity rides the positional
// criteria along any request.
func ExampleAnalyzer_Analyze_composed() {
	var analyzer chaseterm.Analyzer
	rules := chaseterm.MustParseRules(`p(X,Y) -> p(Y,Z).`)
	db := chaseterm.MustParseDatabase(`q(a).`) // no p-facts: inert
	rep, _ := analyzer.Analyze(context.Background(), chaseterm.NewRequest(
		chaseterm.AnalyzeDecide, rules,
		chaseterm.WithDatabase(db),
		chaseterm.WithAcyclicity(),
	))
	fmt.Println("on this database:", rep.Verdict.Terminates)
	fmt.Println("weakly acyclic:  ", rep.Acyclicity.WeaklyAcyclic)
	// Output:
	// on this database: terminating
	// weakly acyclic:   false
}

// A chase run through the Analyzer: the report carries the full
// ChaseResult, so queries over the universal model work as before.
func ExampleAnalyzer_Analyze_chase() {
	var analyzer chaseterm.Analyzer
	rules := chaseterm.MustParseRules(`advises(X,Y) -> professor(X).`)
	db := chaseterm.MustParseDatabase(`advises(turing, ada).`)
	rep, _ := analyzer.Analyze(context.Background(), chaseterm.NewRequest(
		chaseterm.AnalyzeChase, rules,
		chaseterm.WithDatabase(db),
		chaseterm.WithVariant(chaseterm.Restricted),
	))
	fmt.Println(rep.Chase.Outcome)
	profs, _ := rep.Chase.Query(`professor(P)`, "P")
	fmt.Println(profs)
	// Output:
	// terminated
	// [[turing]]
}

// The termination portfolio: every decision climbs the ladder of cheap
// sound criteria before touching the exact deciders, and the verdict
// says which rung decided. A weakly-acyclic rule set never reaches the
// PSPACE/2EXPTIME procedures.
func ExampleAnalyzer_Analyze_portfolio() {
	var analyzer chaseterm.Analyzer
	rules := chaseterm.MustParseRules(`
		professor(X) -> teaches(X,C).
		teaches(X,C) -> course(C).
	`)
	rep, _ := analyzer.Analyze(context.Background(), chaseterm.NewRequest(
		chaseterm.AnalyzeDecide, rules,
		chaseterm.WithVariant(chaseterm.SemiOblivious),
	))
	fmt.Println(rep.Verdict.Terminates)
	fmt.Println("decided by:", rep.Verdict.DecidedBy)
	// Output:
	// terminating
	// decided by: weak-acyclicity
}

// The paper's Example 1: deciding, for every database at once, that the
// chase cannot terminate. On a constant-free simple-linear set the weak
// acyclicity rung is exact (Theorem 1), so its failed check decides.
func ExampleAnalyzer_Analyze_decide() {
	var analyzer chaseterm.Analyzer
	rules := chaseterm.MustParseRules(`person(X) -> hasFather(X,Y), person(Y).`)
	rep, _ := analyzer.Analyze(context.Background(), chaseterm.NewRequest(
		chaseterm.AnalyzeDecide, rules,
		chaseterm.WithVariant(chaseterm.SemiOblivious),
	))
	fmt.Println(rep.Verdict.Terminates)
	fmt.Println(rep.Verdict.Method)
	// Output:
	// non-terminating
	// weak-acyclicity(SL)
}

// The oblivious and semi-oblivious chase can disagree: dropping the
// frontier variable Y makes every new atom a new oblivious trigger while
// the semi-oblivious chase fires once per X.
func ExampleAnalyzer_Analyze_variantsDiffer() {
	var analyzer chaseterm.Analyzer
	rules := chaseterm.MustParseRules(`p(X,Y) -> p(X,Z).`)
	for _, v := range []chaseterm.Variant{chaseterm.Oblivious, chaseterm.SemiOblivious} {
		rep, _ := analyzer.Analyze(context.Background(), chaseterm.NewRequest(
			chaseterm.AnalyzeDecide, rules, chaseterm.WithVariant(v)))
		fmt.Printf("%-15s %s\n", v.String()+":", rep.Verdict.Terminates)
	}
	// Output:
	// oblivious:      non-terminating
	// semi-oblivious: terminating
}

// Termination on one concrete database can hold even when all-instance
// termination fails: a database that never feeds the dangerous rule is
// inert.
func ExampleAnalyzer_Analyze_onDatabase() {
	var analyzer chaseterm.Analyzer
	rules := chaseterm.MustParseRules(`p(X,Y) -> p(Y,Z).`)
	db := chaseterm.MustParseDatabase(`q(a).`) // no p-facts
	rep, _ := analyzer.Analyze(context.Background(), chaseterm.NewRequest(
		chaseterm.AnalyzeDecide, rules, chaseterm.WithDatabase(db)))
	fmt.Println(rep.Verdict.Terminates)
	// Output:
	// terminating
}

// Running the restricted chase to saturation and asking a certain-answer
// query over the universal model.
func ExampleChaseResult_Query() {
	var analyzer chaseterm.Analyzer
	rules := chaseterm.MustParseRules(`
advises(X,Y) -> professor(X).
professor(X) -> teaches(X,C).
`)
	db := chaseterm.MustParseDatabase(`advises(turing, ada). teaches(church, logic101).`)
	rep, _ := analyzer.Analyze(context.Background(), chaseterm.NewRequest(
		chaseterm.AnalyzeChase, rules,
		chaseterm.WithDatabase(db),
		chaseterm.WithVariant(chaseterm.Restricted),
	))
	res := rep.Chase
	fmt.Println(res.Outcome)

	profs, _ := res.Query(`professor(P)`, "P")
	fmt.Println(profs)

	// turing teaches only an anonymous course, so (P,C) certain answers
	// name church alone.
	pairs, _ := res.Query(`teaches(P,C)`, "P", "C")
	fmt.Println(pairs)
	// Output:
	// terminated
	// [[turing]]
	// [[church logic101]]
}

// The looping operator turns an entailment question into a termination
// question: the transformed rules diverge exactly when the goal is
// entailed.
func ExampleLoopEntailment() {
	inst := chaseterm.EntailmentInstance{
		Rules: chaseterm.MustParseRules(`edge(X,Y), reach(X) -> reach(Y).`),
		DB:    chaseterm.MustParseDatabase(`edge(a,b). reach(a).`),
		Goal:  "reach(b)",
	}
	looped, _ := chaseterm.LoopEntailment(inst)
	var analyzer chaseterm.Analyzer
	rep, _ := analyzer.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalyzeDecide, looped))
	fmt.Println("entailed:", rep.Verdict.Terminates == chaseterm.No)
	// Output:
	// entailed: true
}

// Classifying rule sets into the paper's classes.
func ExampleRuleSet_Classify() {
	for _, src := range []string{
		`p(X,Y) -> q(Y,Z).`,
		`p(X,X) -> q(X).`,
		`g(X,Y), s(Y) -> t(X).`,
		`a(X), b(Y) -> c(X,Y).`,
	} {
		rules := chaseterm.MustParseRules(src)
		fmt.Println(rules.Classify())
	}
	// Output:
	// simple-linear
	// linear
	// guarded
	// general
}

// The positional acyclicity ladder: each criterion recognizes more
// terminating sets than the previous one (and the exact deciders all of
// them).
func ExampleAnalyzer_Analyze_acyclicity() {
	var analyzer chaseterm.Analyzer
	rules := chaseterm.MustParseRules("p(X) -> q(X,Y).\nq(X,Y), q(Y,X) -> p(Y).")
	rep, _ := analyzer.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalyzeAcyclicity, rules))
	fmt.Println("weakly acyclic: ", rep.Acyclicity.WeaklyAcyclic)
	fmt.Println("jointly acyclic:", rep.Acyclicity.JointlyAcyclic)
	// Output:
	// weakly acyclic:  false
	// jointly acyclic: true
}

// Searching the restricted-chase sequence space: some sequence terminates
// although the fair FIFO run diverges (the ∀/∃-sequence gap of the paper's
// Section 2).
func ExampleExploreRestrictedSequences() {
	rules := chaseterm.MustParseRules(`r(X,Y) -> r(Y,Z).
r(X,Y) -> r(Y,X).`)
	db := chaseterm.MustParseDatabase(`r(a,b).`)
	res, _ := chaseterm.ExploreRestrictedSequences(db, rules, chaseterm.ExploreOptions{})
	fmt.Println("terminating sequence found:", res.Found)
	fmt.Println("apply rule:", res.Trace)
	// Output:
	// terminating sequence found: true
	// apply rule: [1]
}
