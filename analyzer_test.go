package chaseterm_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"chaseterm"
	"chaseterm/internal/acyclicity"
)

var an chaseterm.Analyzer

func TestAnalyzeClassify(t *testing.T) {
	rules := chaseterm.MustParseRules(`gate(X,Y), live(X) -> out(Y,Z), live(Z).
	                                   out(Y,Z) -> gate(Y,Z).`)
	rep, err := an.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalyzeClassify, rules))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != chaseterm.AnalyzeClassify || rep.Class != chaseterm.Guarded {
		t.Errorf("classify report: kind %v class %v", rep.Kind, rep.Class)
	}
	if rep.NumRules != 2 || rep.MaxArity != 2 {
		t.Errorf("schema: %d rules, arity %d", rep.NumRules, rep.MaxArity)
	}
	if want := []string{"gate/2", "live/1", "out/2"}; !reflect.DeepEqual(rep.Predicates, want) {
		t.Errorf("predicates %v, want %v", rep.Predicates, want)
	}
	if rep.Fingerprint != rules.Fingerprint() || len(rep.Fingerprint) != 64 {
		t.Errorf("fingerprint %q", rep.Fingerprint)
	}
	if rep.Verdict != nil || rep.Chase != nil || rep.Acyclicity != nil {
		t.Errorf("classify report carries extra sections: %+v", rep)
	}
}

func TestAnalyzeDecideOnDatabase(t *testing.T) {
	rules := chaseterm.MustParseRules(`p(X,Y) -> p(Y,Z).`)
	db := chaseterm.MustParseDatabase(`q(a).`) // no p-facts: inert
	rep, err := an.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules,
		chaseterm.WithDatabase(db), chaseterm.WithVariant(chaseterm.SemiOblivious)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Terminates != chaseterm.Yes {
		t.Errorf("fixed-db decide on inert database: %+v", rep.Verdict)
	}
	// Without the database the same rule set is non-terminating.
	rep, err = an.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules,
		chaseterm.WithVariant(chaseterm.SemiOblivious)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Terminates != chaseterm.No {
		t.Errorf("all-instance decide: %+v", rep.Verdict)
	}
	// A database constant that prints quoted is the rules' 'Bob': the
	// database feeds the recursion.
	rules = chaseterm.MustParseRules(`p('Bob',X) -> p('Bob',Y), q(X,Y).`)
	db = chaseterm.MustParseDatabase(`p('Bob',a).`)
	rep, err = an.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules,
		chaseterm.WithDatabase(db), chaseterm.WithVariant(chaseterm.SemiOblivious)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Terminates != chaseterm.No {
		t.Errorf("fixed-db decide with a quoted constant: %+v", rep.Verdict)
	}
}

func TestAnalyzeChase(t *testing.T) {
	rules := chaseterm.MustParseRules(`professor(X) -> teaches(X,C).
	                                   teaches(X,C) -> course(C).`)
	db := chaseterm.MustParseDatabase(`professor(turing).`)
	rep, err := an.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalyzeChase, rules,
		chaseterm.WithDatabase(db), chaseterm.WithVariant(chaseterm.Restricted), chaseterm.WithFacts()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chase == nil || rep.Chase.Outcome != chaseterm.Terminated {
		t.Fatalf("chase report: %+v", rep.Chase)
	}
	if rep.Chase.Stats.FactsAdded == 0 || len(rep.Chase.Facts()) == 0 {
		t.Errorf("chase stats/facts empty: %+v", rep.Chase.Stats)
	}
	// Certain-answer queries work on the report's result.
	got, err := rep.Chase.Query(`course(C)`, "C")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		// turing's course is anonymous, so there are no certain answers.
		t.Errorf("certain courses %v, want none", got)
	}
}

// TestAnalyzeChaseDefaultsToCriticalInstance: with no database attached
// the chase seeds from I*(Σ), mirroring the all-instance decision.
func TestAnalyzeChaseDefaultsToCriticalInstance(t *testing.T) {
	rules := chaseterm.MustParseRules(`person(X) -> hasFather(X,Y), person(Y).`)
	rep, err := an.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalyzeChase, rules,
		chaseterm.WithChaseBudgets(chaseterm.ChaseOptions{MaxTriggers: 100, MaxFacts: 100})))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chase.Outcome == chaseterm.Terminated {
		t.Errorf("critical chase of Example 1 cannot terminate: %+v", rep.Chase)
	}
	if rep.Chase.Stats.InitialFacts != chaseterm.CriticalDatabase(rules).Size() {
		t.Errorf("initial facts %d, want the critical instance size", rep.Chase.Stats.InitialFacts)
	}
}

// TestAnalyzeChaseCancellation: the chase kind returns the partial
// report together with the context error.
func TestAnalyzeChaseCancellation(t *testing.T) {
	rules := chaseterm.MustParseRules(`person(X) -> hasFather(X,Y), person(Y).`)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rep, err := an.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeChase, rules,
		chaseterm.WithChaseBudgets(chaseterm.ChaseOptions{MaxTriggers: 50_000_000, MaxFacts: 50_000_000})))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want deadline exceeded", err)
	}
	if rep == nil || rep.Chase == nil || rep.Chase.Outcome != chaseterm.Canceled {
		t.Fatalf("canceled chase must return the partial report, got %+v", rep)
	}
}

// TestAnalyzeDecideCancellation: non-chase kinds return a nil report
// with the context error.
func TestAnalyzeDecideCancellation(t *testing.T) {
	rules := chaseterm.MustParseRules(`p(X), q(Y) -> s(X,Y). s(X,Y) -> p(Z), t(X,Z).`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := an.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want canceled", err)
	}
	if rep != nil {
		t.Fatalf("canceled decide returned a report: %+v", rep)
	}
}

func TestAnalyzeAcyclicity(t *testing.T) {
	rules := chaseterm.MustParseRules("p(X) -> q(X,Y).\nq(X,Y), q(Y,X) -> p(Y).")
	rep, err := an.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalyzeAcyclicity, rules))
	if err != nil {
		t.Fatal(err)
	}
	// The reference is the acyclicity package itself.
	var want chaseterm.AcyclicityReport
	var w *acyclicity.Witness
	if want.RichlyAcyclic, w = acyclicity.IsRichlyAcyclic(rules.Internal()); w != nil {
		want.RAWitness = w.String()
	}
	if want.WeaklyAcyclic, w = acyclicity.IsWeaklyAcyclic(rules.Internal()); w != nil {
		want.WAWitness = w.String()
	}
	if want.JointlyAcyclic, w = acyclicity.IsJointlyAcyclic(rules.Internal()); w != nil {
		want.JAWitness = w.String()
	}
	if rep.Acyclicity == nil || !reflect.DeepEqual(*rep.Acyclicity, want) {
		t.Errorf("acyclicity report %+v, want %+v", rep.Acyclicity, want)
	}
	if rep.Acyclicity.WeaklyAcyclic || !rep.Acyclicity.JointlyAcyclic {
		t.Errorf("JA-not-WA example misreported: %+v", rep.Acyclicity)
	}
}

// TestAnalyzeWithAcyclicityComposes: WithAcyclicity rides along any
// kind, so one request can carry a verdict and the criteria ladder.
func TestAnalyzeWithAcyclicityComposes(t *testing.T) {
	rules := chaseterm.MustParseRules(`person(X) -> hasFather(X,Y), person(Y).`)
	rep, err := an.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules,
		chaseterm.WithAcyclicity()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict == nil || rep.Verdict.Terminates != chaseterm.No {
		t.Errorf("verdict missing or wrong: %+v", rep.Verdict)
	}
	if rep.Acyclicity == nil || rep.Acyclicity.WeaklyAcyclic {
		t.Errorf("attached acyclicity report wrong: %+v", rep.Acyclicity)
	}
}

// TestStructLiteralRequestDefaultsToSemiOblivious: a Request built as a
// plain struct literal (bypassing NewRequest) must still get the
// documented SemiOblivious default, not the Variant zero value
// (Oblivious) — the two decide genuinely different problems.
func TestStructLiteralRequestDefaultsToSemiOblivious(t *testing.T) {
	// CT^o and CT^so differ on this set: dropping the frontier variable
	// keeps the semi-oblivious chase finite while the oblivious diverges.
	rules := chaseterm.MustParseRules(`p(X,Y) -> p(X,Z).`)
	rep, err := an.Analyze(context.Background(),
		chaseterm.Request{Kind: chaseterm.AnalyzeDecide, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Terminates != chaseterm.Yes {
		t.Errorf("struct-literal request decided %v — it ran the oblivious variant instead of the semi-oblivious default", rep.Verdict.Terminates)
	}
	if got := (chaseterm.Request{}).Variant(); got != chaseterm.SemiOblivious {
		t.Errorf("zero Request reports variant %v, want SemiOblivious", got)
	}
}

// TestDecideBudgetsApplyOnDatabase: WithDecideBudgets must bound the
// fixed-database deciders too, not just the all-instance ones.
func TestDecideBudgetsApplyOnDatabase(t *testing.T) {
	rules := chaseterm.MustParseRules(`gate(X,Y), live(X) -> out(Y,Z), live(Z).
	                                   out(Y,Z) -> gate(Y,Z).`)
	db := chaseterm.MustParseDatabase(`gate(a,b). live(a).`)
	_, err := an.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules,
		chaseterm.WithDatabase(db),
		chaseterm.WithDecideBudgets(chaseterm.DecideOptions{MaxNodeTypes: 1})))
	if err == nil {
		t.Fatal("a one-node-type budget cannot complete the guarded forest; want an error")
	}
}

func TestAnalyzeRejectsBadRequests(t *testing.T) {
	rules := chaseterm.MustParseRules(`p(X) -> q(X).`)
	if _, err := an.Analyze(context.Background(), chaseterm.Request{Kind: chaseterm.AnalyzeDecide}); err == nil {
		t.Error("nil rule set accepted")
	}
	if _, err := an.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalysisKind(42), rules)); err == nil {
		t.Error("unknown kind accepted")
	}
	// WithDatabase(nil) is a caller bug, not "no database": silently
	// answering the all-instance problem would be a different question.
	if _, err := an.Analyze(context.Background(), chaseterm.NewRequest(chaseterm.AnalyzeDecide, rules,
		chaseterm.WithDatabase(nil))); err == nil {
		t.Error("nil database accepted")
	}
}

// arityMismatches pairs rule sets with databases whose facts use a rule
// predicate with another arity. Parsed separately, neither text is
// wrong on its own.
var arityMismatches = []struct{ rules, db string }{
	{"p(X,Y) -> p(Y,Z).", "p(a,b,c)."},
	{"p(X,Y), q(X) -> p(Y,Z).", "p(a,b,c). q(a)."},
	{"p(X,Y) -> p(Y,Z).", "p(a)."},
	{"p(X,Y), q(X) -> p(Y,Z).", "p(a). q(a)."},
	{"p(X,Y), q(X,W) -> p(Y,Z), q(Y,X).", "p(a,b). q(a)."},
	{"a(X), b(Y) -> c(X,Y). c(X,Y) -> c(Y,Z).", "a(x). b(y,z)."},
}

// TestAnalyzeRejectsDatabaseArityMismatch: a database that disagrees
// with the rules' arities is an error before any decider or engine runs,
// for every variant — not a misread verdict or a panic.
func TestAnalyzeRejectsDatabaseArityMismatch(t *testing.T) {
	for _, c := range arityMismatches {
		rules := chaseterm.MustParseRules(c.rules)
		db := chaseterm.MustParseDatabase(c.db)
		for _, kind := range []chaseterm.AnalysisKind{chaseterm.AnalyzeDecide, chaseterm.AnalyzeChase} {
			for _, v := range []chaseterm.Variant{chaseterm.Oblivious, chaseterm.SemiOblivious, chaseterm.Restricted} {
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("%s on %s, %v %v: panic: %v", c.rules, c.db, kind, v, p)
						}
					}()
					rep, err := an.Analyze(context.Background(), chaseterm.NewRequest(kind, rules,
						chaseterm.WithDatabase(db), chaseterm.WithVariant(v)))
					if err == nil || rep != nil {
						t.Errorf("%s on %s, %v %v: report %v, error %v; want only an error", c.rules, c.db, kind, v, rep, err)
					}
				}()
			}
		}
		if _, err := chaseterm.ExploreRestrictedSequences(db, rules, chaseterm.ExploreOptions{}); err == nil {
			t.Errorf("%s on %s: sequence search accepted the database", c.rules, c.db)
		}
	}
	_, err := chaseterm.EntailsContext(context.Background(), chaseterm.EntailmentInstance{
		Rules: chaseterm.MustParseRules("e(X,Y) -> r(X,Y)."),
		DB:    chaseterm.MustParseDatabase("e(a)."),
		Goal:  "r(a,a)",
	})
	if err == nil {
		t.Error("entailment accepted a database that disagrees with the rules")
	}
}

// TestCheckAritiesRepeatAllocFree: a database remembers the rule set it
// last passed against, so the repeat check of one request allocates
// nothing, even with a fact-only predicate (whose first check builds a
// map). A rule set it clashes with is still checked, and fails.
func TestCheckAritiesRepeatAllocFree(t *testing.T) {
	rules := chaseterm.MustParseRules("p(X,Y) -> p(Y,Z).")
	db := chaseterm.MustParseDatabase("p(a,b). p(b,c). extra(a).")
	if err := db.CheckArities(rules); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := db.CheckArities(rules); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("repeat CheckArities allocates %v times, want 0", n)
	}
	for _, clash := range []string{"p(X) -> q(X).", "extra(X,Y) -> p(X,Y)."} {
		if err := db.CheckArities(chaseterm.MustParseRules(clash)); err == nil {
			t.Errorf("database passed against %s", clash)
		}
		if err := db.CheckArities(rules); err != nil {
			t.Errorf("after %s: %v", clash, err)
		}
	}
	// An equal but separately parsed rule set is checked afresh, and passes.
	if err := db.CheckArities(chaseterm.MustParseRules("p(X,Y) -> p(Y,Z).")); err != nil {
		t.Error(err)
	}
}

func TestAnalysisKindRoundTrip(t *testing.T) {
	kinds := []chaseterm.AnalysisKind{
		chaseterm.AnalyzeClassify, chaseterm.AnalyzeDecide,
		chaseterm.AnalyzeChase, chaseterm.AnalyzeAcyclicity,
	}
	for _, k := range kinds {
		back, err := chaseterm.ParseAnalysisKind(k.String())
		if err != nil || back != k {
			t.Errorf("kind %v round-trips to (%v, %v)", k, back, err)
		}
	}
	if _, err := chaseterm.ParseAnalysisKind("mystery"); err == nil {
		t.Error("unknown kind name parsed")
	}
}
