package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"chaseterm/api"
	"chaseterm/internal/chase"
	"chaseterm/internal/logic"
	"chaseterm/internal/workload"
)

// benchSpec is the part of BENCHMARK.json the tests hold the program to.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchSpec
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyConfig(workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.trace = workload, 7, trace
	cfg.seconds = 0.3
	if trace {
		cfg.seconds = 0.9
	}
	cfg.poolSize, cfg.ringSize, cfg.chaseRing, cfg.setups = 70, 256, 8, 1
	cfg.warmDecides, cfg.warmRepeats, cfg.warmChases = 8, 32, 2
	return cfg
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// size with a fixed seed: every check must pass, and every metric of
// BENCHMARK.json must be printed with its unit.
func TestWorkloadsTiny(t *testing.T) {
	c := loadSpec(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			cfg := tinyConfig(w.Name, trace)
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d, first failures %v",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, res.record["first_failures"])
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (printed: %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			var out strings.Builder
			if err := emit(&out, cfg, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("result keys: %s", lines[len(lines)-1])
			}
		}
	}
}

// TestReferenceChase checks the naive semi-oblivious chase on the
// ontology example, worked by hand: the 4 database facts plus
// teaches(turing,f0_C(turing)), attends(ada,f2_C(ada)), course of
// logic101, f0_C(turing) and f2_C(ada), and a teacher f6_P(·) for each
// of the three courses — 12 facts. The engine must agree fact for fact.
func TestReferenceChase(t *testing.T) {
	rs, db := workload.OntologySL(), workload.OntologyDB()
	ref, err := referenceSO(rs, db, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ref.n != 12 {
		t.Fatalf("reference chase derived %d facts, want 12", ref.n)
	}
	res, err := chase.RunFromAtomsContext(context.Background(), db, rs, chase.SemiOblivious, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got factDigest
	for _, f := range res.Instance.Strings() {
		got.add(f)
	}
	if got != ref {
		t.Errorf("engine result %v differs from the reference %v: %v", got, ref, res.Instance.Strings())
	}
	// Example 1 diverges: the reference chase must hit its cap.
	if _, err := referenceSO(workload.Example1(), workload.Example1DB(), 500); err == nil {
		t.Error("reference chase of Example 1 terminated")
	}
}

// TestOracle checks the reference verdicts on hand-checked cases and on
// the paper-family sizes the workloads send, whose answer is known by
// construction, in every variant.
func TestOracle(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name    string
		rs      *logic.RuleSet
		variant string
		want    string
	}{
		{"Example 1 (so)", workload.Example1(), "so", "non-terminating"},
		{"Example 1 (o)", workload.Example1(), "o", "non-terminating"},
		{"Example 2", workload.Example2(), "so", "non-terminating"},
		{"OntologySL", workload.OntologySL(), "so", "terminating"},
		{"DataExchange", workload.DataExchange(), "o", "terminating"},
	}
	for g, gen := range decideGens {
		if !strings.HasSuffix(gen.name, "-family") {
			continue
		}
		for rank := 0; rank < 4*gen.sizes; rank++ {
			if gen.name == "sl-family" && slSizes[(rank%gen.sizes)/2] > 64 {
				// Longer chains outgrow the oracle's budget; their
				// answer rests on construction (experiment E6).
				continue
			}
			it, rs := poolEntry(1, rank*len(decideGens)+g)
			want := "terminating"
			if it.expect == answerNonTerm {
				want = "non-terminating"
			}
			cases = append(cases, struct {
				name    string
				rs      *logic.RuleSet
				variant string
				want    string
			}{fmt.Sprintf("%s rank %d (%s)", gen.name, rank, it.variant), rs, it.variant, want})
		}
	}
	for _, c := range cases {
		got, err := oracleAnswer(ctx, c.rs, c.variant)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: oracle says %s, want %s\n%s", c.name, got, c.want, c.rs)
		}
	}
}

func TestModelCheck(t *testing.T) {
	rs := workload.OntologySL()
	db := workload.OntologyDB()
	res, err := chase.RunFromAtomsContext(context.Background(), db, rs, chase.Restricted, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := newModel()
	for _, f := range res.Instance.Strings() {
		if err := m.add(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.checkModel(rs, db); err != nil {
		t.Errorf("restricted result rejected: %v", err)
	}
	// The database alone violates professor(X) → teaches(X,C).
	bare := newModel()
	for _, a := range db {
		if err := bare.add(a.String()); err != nil {
			t.Fatal(err)
		}
	}
	if err := bare.checkModel(rs, db); err == nil {
		t.Error("the bare database passed as a model")
	}
}

// TestRequestSpans checks that a request's span self times add up to
// its wall time and that the uncovered remainder is what no layer span
// explains.
func TestRequestSpans(t *testing.T) {
	origin := time.Unix(0, 0)
	o := &outcome{
		at:   origin.Add(time.Millisecond),
		lat:  10 * time.Millisecond,
		done: origin.Add(12 * time.Millisecond),
	}
	o.trace = &api.Trace{WallMillis: 6, Spans: []api.Span{{Name: "decode", Millis: 1}, {Name: "decider", Millis: 4}}}
	spans, violated := requestSpans(o, origin)
	if violated {
		t.Error("a well-formed request was reported as a violation")
	}
	var self int64
	for _, s := range spans {
		if s.Self < 0 {
			t.Errorf("span %s has negative self time %d", s.Name, s.Self)
		}
		self += s.Self
	}
	wall := spans[0].End - spans[0].Start
	if self != wall || wall != int64(11*time.Millisecond) {
		t.Errorf("self times add up to %d, wall %d", self, wall)
	}
	if want := int64(time.Millisecond); spans[0].Uncovered != want {
		t.Errorf("uncovered %d, want %d (the server's 1ms no span covers)", spans[0].Uncovered, want)
	}
}

// TestRequestSpansViolation checks that a server whose reported times
// do not fit is reported, not silently clamped.
func TestRequestSpansViolation(t *testing.T) {
	origin := time.Unix(0, 0)
	cases := []struct {
		name  string
		trace api.Trace
	}{
		{"wall beyond the round trip", api.Trace{WallMillis: 12, Spans: []api.Span{{Name: "decider", Millis: 4}}}},
		{"spans beyond the wall", api.Trace{WallMillis: 6, Spans: []api.Span{{Name: "decode", Millis: 2}, {Name: "decider", Millis: 5}}}},
	}
	for _, c := range cases {
		o := &outcome{at: origin, lat: 10 * time.Millisecond, done: origin.Add(10 * time.Millisecond), trace: &c.trace}
		spans, violated := requestSpans(o, origin)
		if !violated {
			t.Errorf("%s: not reported", c.name)
		}
		var self int64
		for _, s := range spans {
			self += s.Self
		}
		if wall := spans[0].End - spans[0].Start; self != wall {
			t.Errorf("%s: clamped tree's self times add up to %d, wall %d", c.name, self, wall)
		}
	}
}
