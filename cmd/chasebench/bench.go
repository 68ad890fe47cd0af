package main

// The tracked-benchmark mode: `chasebench -bench` runs the hot-path
// benchmark suite in-process with testing.Benchmark and emits a
// machine-readable JSON report (schema "chasebench/v1"). The committed
// BENCH_chase.json at the repository root holds one run per tracked
// point in time — the pre-optimization baseline first — so the perf
// trajectory of the chase engine is part of the repository history.
// `chasebench -check file` validates a report against the schema; CI
// runs the pair in quick mode to keep both the suite and the schema
// honest without turning CI into a perf gate.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"chaseterm/internal/chase"
	"chaseterm/internal/core"
	"chaseterm/internal/critical"
	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
	"chaseterm/internal/parse"
	"chaseterm/internal/portfolio"
	"chaseterm/internal/workload"
)

// benchSchemaVersion is bumped on incompatible report changes.
const benchSchemaVersion = 1

// benchReport is the JSON shape of BENCH_chase.json.
type benchReport struct {
	SchemaVersion int        `json:"schemaVersion"`
	Suite         string     `json:"suite"`
	Runs          []benchRun `json:"runs"`
}

type benchRun struct {
	Label      string             `json:"label"`
	GoVersion  string             `json:"goVersion"`
	Quick      bool               `json:"quick,omitempty"`
	Benchmarks []benchMeasurement `json:"benchmarks"`
}

type benchMeasurement struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"nsPerOp"`
	BytesPerOp  int64              `json:"bytesPerOp"`
	AllocsPerOp int64              `json:"allocsPerOp"`
	OpsPerSec   float64            `json:"opsPerSec"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func measurement(name string, r testing.BenchmarkResult, metrics map[string]float64) benchMeasurement {
	ns := float64(r.NsPerOp())
	ops := 0.0
	if ns > 0 {
		ops = 1e9 / ns
	}
	return benchMeasurement{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		OpsPerSec:   ops,
		Metrics:     metrics,
	}
}

// runBenchSuite runs the tracked benchmarks and writes the JSON report.
func runBenchSuite(w io.Writer, quick bool, label string) error {
	run := benchRun{Label: label, GoVersion: runtime.Version(), Quick: quick}

	// engine_trigger_throughput — the saturating datalog-style run of
	// BenchmarkEngineTriggerThroughput.
	nFacts := 400
	if quick {
		nFacts = 100
	}
	ttRules := parse.MustParseRules("e(X,Y) -> r(X,Y).\nr(X,Y) -> s(Y,X).")
	var ttFacts []logic.Atom
	for i := 0; i < nFacts; i++ {
		ttFacts = append(ttFacts, logic.NewAtom("e",
			logic.Constant(fmt.Sprintf("a%d", i)), logic.Constant(fmt.Sprintf("a%d", i+1))))
	}
	var triggers float64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := chase.RunFromAtomsContext(context.Background(), ttFacts, ttRules, chase.SemiOblivious, chase.Options{})
			if err != nil || r.Outcome != chase.Terminated {
				b.Fatalf("throughput run: %v %v", r, err)
			}
			triggers = float64(r.Stats.TriggersApplied)
		}
	})
	m := measurement("engine_trigger_throughput", res, map[string]float64{
		"triggers/op": triggers,
	})
	if res.NsPerOp() > 0 {
		m.Metrics["triggers/s"] = triggers * 1e9 / float64(res.NsPerOp())
	}
	run.Benchmarks = append(run.Benchmarks, m)

	// e10_anatomy/<variant> — full terminating chase runs on the ontology
	// scenario (BenchmarkE10_ChaseAnatomy).
	ontRules := workload.OntologySL()
	ontDB := workload.OntologyDB()
	for _, v := range []chase.Variant{chase.Oblivious, chase.SemiOblivious, chase.Restricted} {
		v := v
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := chase.RunFromAtomsContext(context.Background(), ontDB, ontRules, v, chase.Options{})
				if err != nil || r.Outcome != chase.Terminated {
					b.Fatalf("anatomy run: %v %v", r, err)
				}
			}
		})
		run.Benchmarks = append(run.Benchmarks,
			measurement("e10_anatomy/"+v.String(), res, nil))
	}

	// scale_ontology/<variant> — the certified-terminating DL-Lite
	// materialization workload (BenchmarkEngineScaleOntology). Quick mode
	// shrinks the ABox; the sampling loop is seeded identically either way.
	abox, minAdded := 2000, 2000
	if quick {
		abox, minAdded = 300, 300
	}
	rng := rand.New(rand.NewSource(26))
	var soRules *logic.RuleSet
	var soDB []logic.Atom
	for {
		soRules = workload.RandomInclusionDependencies(rng, 12, 6, 40)
		dres, err := core.DecideLinearContext(context.Background(), soRules, core.VariantSemiOblivious, core.Options{})
		if err != nil {
			return err
		}
		if dres.Verdict.Answer != core.Terminating {
			continue
		}
		soDB = workload.RandomABox(rng, soRules, abox, 300)
		trial, err := chase.RunFromAtomsContext(context.Background(), soDB, soRules, chase.SemiOblivious,
			chase.Options{MaxFacts: 120_000, MaxTriggers: 120_000})
		if err != nil {
			return err
		}
		if trial.Outcome == chase.Terminated && trial.Stats.FactsAdded >= minAdded {
			break
		}
	}
	for _, v := range []chase.Variant{chase.SemiOblivious, chase.Restricted} {
		v := v
		var facts float64
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := chase.RunFromAtomsContext(context.Background(), soDB, soRules, v, chase.Options{MaxFacts: 500_000, MaxTriggers: 500_000})
				if err != nil || r.Outcome != chase.Terminated {
					b.Fatalf("scale run: %v %v", r, err)
				}
				facts = float64(r.Stats.FactsAdded)
			}
		})
		run.Benchmarks = append(run.Benchmarks,
			measurement("scale_ontology/"+v.String(), res, map[string]float64{"facts/run": facts}))
	}

	// homomorphism_join — the backtracking join of BenchmarkEngineHomomorphism.
	in := instance.New()
	e := in.Pred("e", 2)
	terms := make([]instance.TermID, 512)
	for i := range terms {
		terms[i] = in.Terms.Const(fmt.Sprintf("c%d", i))
	}
	for i := 0; i+1 < len(terms); i++ {
		in.Add(e, []instance.TermID{terms[i], terms[i+1]})
	}
	pat, err := instance.CompileBody(in, []logic.Atom{
		logic.NewAtom("e", logic.Variable("X"), logic.Variable("Y")),
		logic.NewAtom("e", logic.Variable("Y"), logic.Variable("Z")),
		logic.NewAtom("e", logic.Variable("Z"), logic.Variable("W")),
	})
	if err != nil {
		return err
	}
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n := in.CountHoms(pat); n != 509 {
				b.Fatalf("homs: %d", n)
			}
		}
	})
	run.Benchmarks = append(run.Benchmarks, measurement("homomorphism_join", res, nil))

	// contains_probe — the dedup probe of the insertion hot path.
	probe := []instance.TermID{terms[100], terms[101]}
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !in.Contains(e, probe) {
				b.Fatal("probe must hit")
			}
		}
	})
	run.Benchmarks = append(run.Benchmarks, measurement("contains_probe", res, nil))

	// portfolio_decide/{ladder,direct} — the portfolio's economy on a
	// weakly-acyclic ontology: the ladder answers at the positional rung
	// in polynomial time, while the direct route pays for the exact
	// shape-space search on every call.
	pfRules := workload.OntologySL()
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := portfolio.Run(context.Background(), pfRules, core.VariantSemiOblivious, portfolio.Options{})
			if err != nil || r.Verdict != portfolio.Terminating || r.DecidedBy != "weak-acyclicity" {
				b.Fatalf("portfolio: %+v %v", r, err)
			}
		}
	})
	run.Benchmarks = append(run.Benchmarks, measurement("portfolio_decide/ladder", res, nil))
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := core.DecideLinearContext(context.Background(), pfRules, core.VariantSemiOblivious, core.Options{})
			if err != nil || r.Verdict.Answer != core.Terminating {
				b.Fatalf("direct: %+v %v", r, err)
			}
		}
	})
	run.Benchmarks = append(run.Benchmarks, measurement("portfolio_decide/direct", res, nil))

	// critical_instance — building I*(Σ) for a mid-sized schema.
	crng := rand.New(rand.NewSource(25))
	crRules := workload.RandomGuarded(crng, workload.Config{NumPreds: 8, MaxArity: 3, NumRules: 8})
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := critical.Instance(crRules); err != nil {
				b.Fatal(err)
			}
		}
	})
	run.Benchmarks = append(run.Benchmarks, measurement("critical_instance", res, nil))

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(benchReport{
		SchemaVersion: benchSchemaVersion,
		Suite:         "chasebench/v1",
		Runs:          []benchRun{run},
	})
}

// checkBenchReport validates a BENCH_chase.json file against the schema.
// It is a structural check, not a perf gate: CI fails on malformed output,
// never on slow numbers.
func checkBenchReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: not valid JSON: %w", path, err)
	}
	if rep.SchemaVersion != benchSchemaVersion {
		return fmt.Errorf("%s: schemaVersion %d, want %d", path, rep.SchemaVersion, benchSchemaVersion)
	}
	if rep.Suite != "chasebench/v1" {
		return fmt.Errorf("%s: suite %q, want %q", path, rep.Suite, "chasebench/v1")
	}
	if len(rep.Runs) == 0 {
		return fmt.Errorf("%s: no runs", path)
	}
	for i, run := range rep.Runs {
		if run.Label == "" {
			return fmt.Errorf("%s: run %d has no label", path, i)
		}
		if run.GoVersion == "" {
			return fmt.Errorf("%s: run %q has no goVersion", path, run.Label)
		}
		if len(run.Benchmarks) == 0 {
			return fmt.Errorf("%s: run %q has no benchmarks", path, run.Label)
		}
		for _, b := range run.Benchmarks {
			switch {
			case b.Name == "":
				return fmt.Errorf("%s: run %q: unnamed benchmark", path, run.Label)
			case b.Iterations <= 0:
				return fmt.Errorf("%s: %s/%s: iterations %d", path, run.Label, b.Name, b.Iterations)
			case b.NsPerOp <= 0:
				return fmt.Errorf("%s: %s/%s: nsPerOp %v", path, run.Label, b.Name, b.NsPerOp)
			case b.AllocsPerOp < 0 || b.BytesPerOp < 0:
				return fmt.Errorf("%s: %s/%s: negative alloc stats", path, run.Label, b.Name)
			case b.OpsPerSec <= 0:
				return fmt.Errorf("%s: %s/%s: opsPerSec %v", path, run.Label, b.Name, b.OpsPerSec)
			}
		}
	}
	return nil
}
