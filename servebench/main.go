// Command servebench is chaseterm's end-to-end benchmark: it drives the
// real serving stack (service.NewHandler behind httptest, called through
// package client) with a closed loop of clients, checks every answer
// against a reference computed outside the serving path, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics of a
// traced run of the same requests. See README.md for the workloads and
// metrics, and run.sh for how to build and run it.
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"req_per_s": {"value": 412.3, "unit": "1/s"}, ...}}
//
// The line before it is the run record (host, build, sample counts).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"chaseterm/internal/service"
)

// config is one run's settings; the defaults are the benchmark's,
// tests shrink them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	clients     int // closed-loop clients, one connection each
	poolSize    int // decide pool: about four times the 1024-entry cache, a whole number of generator rounds
	ringSize    int // disguised decide_repeat requests, sent in turn
	chaseRing   int // chase_materialize requests, sent in turn
	setups      int // 0: each workload's own number of set-ups
	warmDecides int // decide_fresh warm-up requests per set-up
	warmRepeats int // decide_repeat warm-up requests after the restart
	warmChases  int // chase_materialize warm-up requests per set-up
	checkers    int // goroutines computing references after the window

	commit, root, outDir string
}

func defaultConfig() config {
	return config{
		clients:     2,
		poolSize:    585 * len(decideGens),
		ringSize:    8192,
		chaseRing:   64,
		warmDecides: 500,
		warmRepeats: 4096,
		warmChases:  16,
		checkers:    runtime.GOMAXPROCS(0),
	}
}

func main() {
	cfg := defaultConfig()
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "decide_fresh, decide_repeat or chase_materialize")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same requests")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured run")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision, for the run record")
	flag.StringVar(&cfg.root, "root", ".", "source tree, digested into the run record")
	flag.StringVar(&cfg.outDir, "out", "", "directory for the run record and span files (empty: none)")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || flag.NArg() != 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: servebench --workload decide_fresh|decide_repeat|chase_materialize --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict on one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	record map[string]any
	spans  []span
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// run generates the inputs, sets up, measures and checks one run.
func run(ctx context.Context, cfg config) (*result, error) {
	def := workloads[cfg.workload]
	b := &bench{cfg: cfg}
	if err := def.prepare(ctx, b); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	b.inputs = b.inputBytes()
	res := &result{Metrics: map[string]metric{}, record: map[string]any{}}
	var err error
	if cfg.trace {
		err = tracedRun(ctx, b, def, res)
	} else {
		err = untracedRun(ctx, b, def, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0 && res.record["invariant_violations"] == 0
	rec := res.record
	rec["workload"], rec["seed"], rec["seconds"], rec["trace"] = cfg.workload, cfg.seed, cfg.seconds, cfg.trace
	rec["num_cpu"], rec["gomaxprocs"], rec["go_version"] = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	rec["commit"], rec["source_sha256"] = cfg.commit, sourceDigest(cfg.root)
	rec["clients"] = cfg.clients
	rec["attempted"], rec["failed"] = res.Attempted, res.Failed
	rec["failed_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	return res, nil
}

// setUp runs the workload's set-up cfg.setups times and keeps the last
// server; the others are shut down. It returns the set-up times.
func setUp(ctx context.Context, b *bench, def workloadDef, timed bool, times int) (*server, []float64, error) {
	var secs []float64
	var s *server
	for k := 0; k < times; k++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		s, err = def.setup(ctx, b, timed)
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			if s != nil {
				s.close()
			}
			return nil, nil, err
		}
	}
	return s, secs, nil
}

// measure sets up, runs one untraced closed-loop window and checks its
// answers. It returns the server's counters over the window.
func measure(ctx context.Context, b *bench, def workloadDef, length time.Duration, setups int) (*window, service.Snapshot, []float64, error) {
	s, secs, err := setUp(ctx, b, def, false, setups)
	if err != nil {
		return nil, service.Snapshot{}, nil, err
	}
	runtime.GC()
	before := s.eng.StatsSnapshot()
	w := runWindow(ctx, s, length, false, b.inputs, def.issue(b))
	stats := statsDelta(before, s.eng.StatsSnapshot())
	s.close()
	if def.check != nil {
		def.check(ctx, b, w)
	}
	return w, stats, secs, nil
}

// statsDelta is what the server counted between two snapshots.
func statsDelta(a, b service.Snapshot) service.Snapshot {
	return service.Snapshot{
		CacheHits: b.CacheHits - a.CacheHits, CacheMisses: b.CacheMisses - a.CacheMisses,
		StoreHits: b.StoreHits - a.StoreHits, StoreMisses: b.StoreMisses - a.StoreMisses,
	}
}

func untracedRun(ctx context.Context, b *bench, def workloadDef, res *result) error {
	cfg := b.cfg
	setups := def.setups
	if cfg.setups > 0 {
		setups = cfg.setups
	}
	w, stats, secs, err := measure(ctx, b, def, seconds(cfg.seconds), setups)
	if err != nil {
		return err
	}
	tally(res, w)
	res.set("setup_s", "s", median(secs))
	endToEnd(res, cfg.workload, w)
	rec := res.record
	rec["setup_s_samples"] = secs
	rec["requests"] = len(w.samples)
	rec["requests_in_window"] = w.completedOK()
	rec["heap_excluded_bytes"] = map[string]int64{"bench_inputs": b.inputs, "bench_samples": w.heap.ownBytes - b.inputs, "store_log": w.heap.storeLog}
	if b.pool != nil {
		decideRecord(rec, b, w, stats)
	}
	rec["invariant_violations"] = 0
	return nil
}

// decideRecord adds what a decide window's traffic was made of: each
// generator's share of requests and of client time, the split of
// answers between the memory cache, the store and the deciders, and
// what splicing tags into decide_fresh requests cost in the window.
func decideRecord(rec map[string]any, b *bench, w *window, stats service.Snapshot) {
	reqs, busy := map[string]float64{}, map[string]float64{}
	var total float64
	uncached := 0
	for _, sm := range w.samples {
		g := b.genOf(int(sm.i))
		reqs[g]++
		busy[g] += sm.lat.Seconds()
		total += sm.lat.Seconds()
		if sm.verdict != verdictNone && !sm.cached {
			uncached++
		}
	}
	for g := range reqs {
		reqs[g] /= float64(len(w.samples))
		busy[g] /= total
	}
	rec["generator_request_share"], rec["generator_client_time_share"] = reqs, busy
	rec["uncached_decides"] = uncached
	decides := float64(stats.CacheHits + stats.CacheMisses)
	rec["answer_split"] = map[string]float64{
		"memory":  ratio(float64(stats.CacheHits), decides),
		"store":   ratio(float64(stats.StoreHits), decides),
		"decided": ratio(float64(stats.CacheMisses-stats.StoreHits), decides),
	}
	if n := len(w.samples); b.ring == nil && n > 0 {
		rec["input_fill_us_per_req"] = float64(b.fillNs.Load()) / 1e3 / float64(n)
		rec["input_fill_kb_per_req"] = float64(b.fillBytes.Load()) / 1024 / float64(n)
	}
}

// tally adds a window's requests to the attempted/failed counts and
// keeps the first few failures for the run record.
func tally(res *result, w *window) {
	for _, sm := range w.samples {
		res.Attempted++
		if !sm.ok {
			res.Failed++
		}
	}
	prev, _ := res.record["first_failures"].([]string)
	res.record["first_failures"] = append(prev, w.fails...)
}

// endToEnd computes the end-to-end metrics of an untraced window.
func endToEnd(res *result, workload string, w *window) {
	var lat, first []float64
	var facts, ok, inWindow int
	for _, sm := range w.samples {
		if !sm.ok {
			continue
		}
		ok++
		lat = append(lat, ms(sm.lat))
		if sm.first > 0 {
			first = append(first, ms(sm.first))
		}
		if sm.end <= w.length {
			inWindow++
			if workload == "chase_materialize" {
				facts += int(sm.facts)
			} else {
				facts++ // a decide request delivers one verdict
			}
		}
	}
	n := float64(max(len(w.samples), 1))
	secs := w.length.Seconds()
	res.set("req_per_s", "1/s", float64(inWindow)/secs)
	res.set("req_p50_ms", "ms", quantile(lat, 0.50))
	res.set("req_p90_ms", "ms", quantile(lat, 0.90))
	res.set("req_p99_ms", "ms", quantile(lat, 0.99))
	res.set("ok_share", "fraction", float64(ok)/n)
	res.set("facts_per_s", "1/s", float64(facts)/secs)
	res.set("first_facts_p50_ms", "ms", quantile(first, 0.50))
	res.set("alloc_kb_per_req", "KiB", float64(w.allocB)/1024/n)
	res.set("peak_heap_mb", "MB", float64(w.heap.bytes)/1e6)
	res.record["samples"] = map[string]int{"req_latency": len(lat), "first_facts": len(first), "heap_intervals": w.heap.intervals}
}

// emit writes the run record and the result line, and the record and
// spans into cfg.outDir when set.
func emit(w io.Writer, cfg config, res *result) error {
	rec, err := json.Marshal(map[string]any{"run_record": res.record})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
		base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%v", cfg.workload, cfg.seed, cfg.trace))
		if err := os.WriteFile(base+".json", append(append(rec, '\n'), append(line, '\n')...), 0o644); err != nil {
			return err
		}
		if cfg.trace {
			if err := writeSpans(base+".spans.jsonl", res.spans); err != nil {
				return err
			}
		}
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rec, line)
	return err
}

// sourceDigest hashes the Go sources and module files under root, so a
// run record names the code it measured even outside version control.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unavailable"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile by linear interpolation between order
// statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
