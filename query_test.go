package chaseterm

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func chaseOntology(t *testing.T) *ChaseResult {
	t.Helper()
	rules := MustParseRules(`
professor(X) -> teaches(X,C).
teaches(X,C) -> course(C).
advises(X,Y) -> professor(X).
advises(X,Y) -> student(Y).
`)
	db := MustParseDatabase(`
advises(turing, ada).
teaches(church, logic101).
`)
	res, err := chaseOn(context.Background(), db, rules, Restricted, ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Terminated {
		t.Fatal("ontology chase did not terminate")
	}
	return res
}

func TestQueryCertainAnswers(t *testing.T) {
	res := chaseOntology(t)
	// Who teaches a course? Certain answers must be constants only:
	// turing teaches an anonymous course (null) — that pair is not a
	// certain (P,C) answer, but P=turing alone is not asked here.
	ans, err := res.Query(`teaches(P,C)`, "P", "C")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0][0] != "church" || ans[0][1] != "logic101" {
		t.Errorf("answers: %v", ans)
	}
	// Projecting only P keeps turing: the C-binding may be a null as long
	// as the projected variables are constants.
	ans, err = res.Query(`teaches(P,C)`, "P")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 || ans[0][0] != "church" || ans[1][0] != "turing" {
		t.Errorf("answers: %v", ans)
	}
}

func TestQueryJoin(t *testing.T) {
	res := chaseOntology(t)
	// Professors who teach an actual known course.
	ans, err := res.Query(`professor(P), teaches(P,C), course(C)`, "P", "C")
	if err != nil {
		t.Fatal(err)
	}
	// church is not derived to be a professor (no rule says so), and
	// turing's course is anonymous: no certain answers.
	if len(ans) != 0 {
		t.Errorf("answers: %v", ans)
	}
}

func TestQueryBoolean(t *testing.T) {
	res := chaseOntology(t)
	// Boolean query: does SOMEONE teach something? Yes — nulls count for
	// boolean certain answers.
	ok, err := res.Holds(`professor(P), teaches(P,C)`)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("boolean query should hold (turing teaches an anonymous course)")
	}
	ok, err = res.Holds(`student(S), teaches(S,C)`)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("no student teaches")
	}
}

func TestQueryDedupAndSort(t *testing.T) {
	rules := MustParseRules(`e(X,Y) -> conn(X), conn(Y).`)
	db := MustParseDatabase(`e(b,a). e(a,b). e(c,a).`)
	res, err := chaseOn(context.Background(), db, rules, Restricted, ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := res.Query(`conn(X)`, "X")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 3 || ans[0][0] != "a" || ans[1][0] != "b" || ans[2][0] != "c" {
		t.Errorf("answers: %v", ans)
	}
}

func TestQueryErrors(t *testing.T) {
	res := chaseOntology(t)
	if _, err := res.Query(`teaches(P,C`, "P"); err == nil {
		t.Error("bad query text accepted")
	}
	if _, err := res.Query(`teaches(P,C)`, "Z"); err == nil {
		t.Error("unknown answer variable accepted")
	}
	if _, err := res.Holds(`teaches(P,`); err == nil {
		t.Error("bad boolean query accepted")
	}
}

// TestQueryRepeatedVariable: repeated variables in query atoms act as
// equality constraints.
func TestQueryRepeatedVariable(t *testing.T) {
	rules := MustParseRules(`likes(X,Y) -> knows(X,Y).`)
	db := MustParseDatabase(`likes(a,a). likes(a,b).`)
	res, err := chaseOn(context.Background(), db, rules, Restricted, ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := res.Query(`knows(X,X)`, "X")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0][0] != "a" {
		t.Errorf("answers: %v", ans)
	}
}

// TestConcurrentQueries: goroutines query one chase result at once, the
// first queries included. Compiling a query indexes the columns its plan
// probes, so the result indexes every column once, before the first
// compile, and the queries themselves stay read-only; -race checks it.
func TestConcurrentQueries(t *testing.T) {
	queries := []struct {
		body string
		vars []string
	}{
		{`teaches(P,C), course(C)`, []string{"P", "C"}},
		{`advises(X,Y), professor(X)`, []string{"X", "Y"}},
		{`teaches(turing,C), course(C)`, nil},
		{`student(ada)`, nil},
	}
	answers := func(res *ChaseResult, i int) string {
		q := queries[i]
		if q.vars == nil {
			ok, err := res.Holds(q.body)
			if err != nil {
				return err.Error()
			}
			return fmt.Sprint(ok)
		}
		ans, err := res.Query(q.body, q.vars...)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(ans)
	}
	ref := chaseOntology(t)
	want := make([]string, len(queries))
	for i := range queries {
		want[i] = answers(ref, i)
	}
	res := chaseOntology(t)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 4 * len(queries) {
				i := (g + k) % len(queries)
				if got := answers(res, i); got != want[i] {
					errs <- fmt.Sprintf("%s: %s, want %s", queries[i].body, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
