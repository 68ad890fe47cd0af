package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime"
	"time"

	"chaseterm"
	"chaseterm/api"
	"chaseterm/internal/acyclicity"
	"chaseterm/internal/chase"
	"chaseterm/internal/core"
	"chaseterm/internal/critical"
	"chaseterm/internal/instance"
	"chaseterm/internal/logic"
	"chaseterm/internal/portfolio"
)

// span is one timed interval of a traced request. Spans nest: a child
// lies inside its parent and siblings do not overlap, so the self times
// of a request's spans add up to the request's wall time exactly.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the request span
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the traced window began
	End    int64  `json:"endNs"`
	Self   int64  `json:"selfNs"` // length minus the time its children cover
	// Uncovered, on the request span only, is the part of the request no
	// layer span accounts for: its own self time plus the server time no
	// server span covers.
	Uncovered int64 `json:"uncoveredNs,omitempty"`
}

// requestSpans lays one traced request out as a span tree:
//
//	request                  send → end of the benchmark's own checks
//	  client.roundtrip       the client call (encode, HTTP, decode)
//	    server               the server's wallMillis, centred in the round trip
//	      <wire span>...     the server's trace spans, in order
//	  bench.check            inline answer checks after the call
//
// The server reports span lengths, not instants, so the server span is
// centred in the round trip and its children are laid end to end from
// its start. A server whose wall time exceeds the client's round trip,
// or whose spans add up to more than its wall time, breaks the span
// invariant: requestSpans reports that, then clamps each span to its
// parent so the tree stays well formed.
func requestSpans(o *outcome, origin time.Time) (spans []span, violated bool) {
	at := o.at.Sub(origin).Nanoseconds()
	rtEnd := at + o.lat.Nanoseconds()
	end := max(o.done.Sub(origin).Nanoseconds(), rtEnd)
	spans = []span{
		{Req: o.i, ID: 0, Parent: -1, Name: "request", Start: at, End: end},
		{Req: o.i, ID: 1, Parent: 0, Name: "client.roundtrip", Start: at, End: rtEnd},
	}
	if o.trace != nil {
		wall := nanos(o.trace.WallMillis)
		var wire int64
		for _, ws := range o.trace.Spans {
			wire += nanos(ws.Millis)
		}
		// Durations cross the wire as float milliseconds; a nanosecond
		// per span absorbs the rounding.
		violated = wall > rtEnd-at || wire > wall+int64(len(o.trace.Spans))
		wall = min(wall, rtEnd-at)
		sStart := at + (rtEnd-at-wall)/2
		sEnd := sStart + wall
		spans = append(spans, span{Req: o.i, ID: 2, Parent: 1, Name: "server", Start: sStart, End: sEnd})
		cur := sStart
		for _, ws := range o.trace.Spans {
			d := min(nanos(ws.Millis), sEnd-cur)
			spans = append(spans, span{Req: o.i, ID: len(spans), Parent: 2, Name: ws.Name, Start: cur, End: cur + d})
			cur += d
		}
	}
	if end > rtEnd {
		spans = append(spans, span{Req: o.i, ID: len(spans), Parent: 0, Name: "bench.check", Start: rtEnd, End: end})
	}
	for k := range spans {
		spans[k].Self = spans[k].End - spans[k].Start
	}
	for k := 1; k < len(spans); k++ {
		spans[spans[k].Parent].Self -= spans[k].End - spans[k].Start
	}
	spans[0].Uncovered = spans[0].Self
	if o.trace != nil {
		spans[0].Uncovered += spans[2].Self
	}
	return spans, violated
}

func nanos(ms float64) int64 { return int64(math.Round(ms * 1e6)) }

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRun measures the same requests three ways, each for a third of
// the run: an untraced window (the baseline of obs.trace_overhead_pct),
// a traced window with "trace": true and a timing wrapper on the verdict
// store, and a single-caller replay of the inputs through the public
// functions of each layer.
func tracedRun(ctx context.Context, b *bench, def workloadDef, res *result) error {
	part := seconds(b.cfg.seconds / 3)
	plain, _, _, err := measure(ctx, b, def, part, 1)
	if err != nil {
		return err
	}
	tally(res, plain)

	s, _, err := setUp(ctx, b, def, true, 1)
	if err != nil {
		return err
	}
	before := s.eng.StatsSnapshot()
	s.timed.reset()
	runtime.GC()
	traced := runWindow(ctx, s, part, true, b.inputs, def.issue(b))
	stats := statsDelta(before, s.eng.StatsSnapshot())
	s.close()
	if def.check != nil {
		def.check(ctx, b, traced)
	}
	tally(res, traced)

	violations := spanMetrics(res, traced)
	decides := float64(stats.CacheHits + stats.CacheMisses)
	res.set("service.cache_hit_ratio", "ratio", ratio(float64(stats.CacheHits), decides))
	res.set("service.store_hit_ratio", "ratio", ratio(float64(stats.StoreHits), decides))
	t := s.timed
	res.set("store.get_us", "us", ratio(float64(t.getNs.Load())/1e3, float64(t.gets.Load())))
	res.set("store.gets", "count", float64(t.gets.Load()))
	res.set("store.put_us", "us", ratio(float64(t.putNs.Load())/1e3, float64(t.puts.Load())))
	res.set("store.puts", "count", float64(t.puts.Load()))
	plainRate := float64(plain.completedOK()) / part.Seconds()
	tracedRate := float64(traced.completedOK()) / part.Seconds()
	res.set("obs.trace_overhead_pct", "%", 100*ratio(plainRate-tracedRate, plainRate))

	replayed, err := replay(ctx, b, part, traced.outs, res)
	if err != nil {
		return err
	}
	rec := res.record
	rec["requests"] = map[string]int{"untraced": len(plain.samples), "traced": len(traced.samples), "replayed": replayed}
	rec["invariant_violations"] = violations
	rec["samples"] = map[string]int{"traced_requests": len(traced.outs), "replayed_inputs": replayed}
	return nil
}

// spanMetrics builds every traced request's span tree, reports the
// client and service layers, and returns how many requests broke the
// span invariant: server spans that do not fit the server's wall time,
// a wall time that does not fit the round trip, or self times adding
// up to more than the request's wall time.
func spanMetrics(res *result, w *window) int {
	var overServer, uncovered, serverSelf float64
	wire := map[string]float64{}
	var queue []float64
	withServer, violations := 0, 0
	for i := range w.outs {
		o := &w.outs[i]
		spans, violated := requestSpans(o, w.begin)
		var selfSum int64
		for _, sp := range spans {
			selfSum += sp.Self
			violated = violated || sp.Self < 0
		}
		if violated || selfSum > spans[0].End-spans[0].Start {
			violations++
		}
		uncovered += float64(spans[0].Uncovered) / 1e3
		res.spans = append(res.spans, spans...)
		if o.trace == nil {
			continue
		}
		withServer++
		overServer += us(o.lat) - o.trace.WallMillis*1e3
		serverSelf += float64(spans[2].Self) / 1e3
		q := 0.0
		for _, ws := range o.trace.Spans {
			wire[ws.Name] += ws.Millis * 1e3
			if ws.Name == "queueWait" {
				q = ws.Millis
			}
		}
		queue = append(queue, q)
	}
	n := float64(max(withServer, 1))
	res.set("client.over_server_us", "us", overServer/n)
	res.set("service.decode_us", "us", wire["decode"]/n)
	res.set("service.cache_lookup_us", "us", wire["cacheLookup"]/n)
	res.set("service.singleflight_wait_us", "us", wire["singleflightWait"]/n)
	res.set("service.uncovered_us", "us", serverSelf/n)
	res.set("service.queue_wait_p99_ms", "ms", quantile(queue, 0.99))
	res.set("trace.request_uncovered_us", "us", uncovered/float64(max(len(w.outs), 1)))
	return violations
}

// layerTimer accumulates one layer's calls during the replay.
type layerTimer struct {
	total, max time.Duration
	calls      int
	size       float64 // a layer-specific count: shapes, node types, facts…
	hits       int     // decisive verdicts, for portfolio rungs
}

func (l *layerTimer) add(d time.Duration) {
	l.total += d
	l.calls++
	l.max = max(l.max, d)
}

func (l *layerTimer) meanUs() float64 { return ratio(us(l.total), float64(l.calls)) }
func (l *layerTimer) meanMs() float64 { return ratio(ms(l.total), float64(l.calls)) }

// replayInput is one request's input as the replay sees it.
type replayInput struct {
	req     api.AnalyzeRequest
	variant string // "so", "o" or "r"
	db      []logic.Atom
}

func (b *bench) replayInput(i int) replayInput {
	switch b.cfg.workload {
	case "decide_fresh":
		it := &b.pool[i%len(b.pool)]
		return replayInput{req: it.request(freshTag(i)), variant: it.variant}
	case "decide_repeat":
		r := &b.ring[i%len(b.ring)]
		return replayInput{req: r.req, variant: b.pool[r.j].variant}
	}
	it, db := chaseABox(b.cfg.seed, i%len(b.chases), b.tboxes)
	return replayInput{req: it.request(b.tboxes), variant: it.variant(), db: db}
}

// replayer accumulates the per-layer timings of the replay.
type replayer struct {
	layers                         map[string]*layerTimer
	cut                            map[string]int // calls cut at replayCallCap, by layer
	direct, ladder, par1, par2     time.Duration
	dbFacts, engineFacts, enqueued float64
}

func (r *replayer) layer(name string) *layerTimer {
	if r.layers[name] == nil {
		r.layers[name] = &layerTimer{}
	}
	return r.layers[name]
}

// time runs f as one call of the named layer and returns its duration.
func (r *replayer) time(name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.layer(name).add(d)
	return d
}

// replayCallCap bounds each decider call of the replay. Run alone, a
// rung can take seconds on an input that the served ladder, racing its
// rungs, decides in microseconds (the guarded rung on a 40-axiom TBox);
// one such call would leave the replay a handful of inputs. A capped
// call counts with the time it took, as undecided, and the run record
// counts the capped calls of each layer.
const replayCallCap = 100 * time.Millisecond

// capped runs f as one call of the named layer under replayCallCap.
func (r *replayer) capped(ctx context.Context, name string, f func(ctx context.Context) error) (time.Duration, error) {
	cctx, cancel := context.WithTimeout(ctx, replayCallCap)
	defer cancel()
	var err error
	d := r.time(name, func() { err = f(cctx) })
	if err != nil && ctx.Err() == nil && cctx.Err() != nil {
		r.cut[name]++
	}
	return d, err
}

// replay sends the run's inputs, in request order and from a single
// caller, through the public functions of every layer until budget has
// passed, and reports the per-layer metrics. Decide inputs have no
// database; their chase layers run over the critical instance with the
// reference oracle's budget.
func replay(ctx context.Context, b *bench, budget time.Duration, traced []outcome, res *result) (int, error) {
	r := &replayer{layers: map[string]*layerTimer{}, cut: map[string]int{}}
	rungs := portfolio.DefaultRegistry().Deciders()
	end := time.Now().Add(budget)
	rctx, cancel := context.WithDeadline(ctx, end.Add(5*time.Second))
	defer cancel()
	n := 0
	for ; time.Now().Before(end); n++ {
		in := b.replayInput(n)
		raw, err := json.Marshal(in.req)
		if err != nil {
			return n, err
		}
		r.time("api.request_decode", func() { err = json.Unmarshal(raw, &api.AnalyzeRequest{}) })
		if err != nil {
			return n, err
		}
		var rs *chaseterm.RuleSet
		r.time("parse.rules", func() { rs, err = chaseterm.ParseRules(in.req.Rules) })
		if err != nil {
			return n, err
		}
		r.time("chaseterm.fingerprint", func() { rs.Fingerprint() })
		r.time("chaseterm.classify", func() { rs.Classify(); rs.Predicates() })
		lrs := rs.Internal()
		r.time("acyclicity.weak", func() { acyclicity.IsWeaklyAcyclic(lrs) })
		r.time("acyclicity.rich", func() { acyclicity.IsRichlyAcyclic(lrs) })
		r.time("acyclicity.joint", func() { acyclicity.IsJointlyAcyclic(lrs) })
		r.time("critical.instance", func() { _, err = critical.Instance(lrs) })
		if err != nil {
			return n, err
		}
		var mfa *chase.Result
		r.capped(rctx, "critical.mfa", func(ctx context.Context) error {
			_, mfa, err = critical.MFAContext(ctx, lrs, chase.Options{MaxTriggers: 200_000, MaxFacts: 200_000})
			return err
		})
		if mfa != nil {
			r.layer("critical.mfa").size += float64(mfa.Stats.TriggersApplied)
		}
		cv := core.VariantSemiOblivious
		if in.variant == "o" {
			cv = core.VariantOblivious
		}
		layer := "core.linear"
		if lrs.Classify() == logic.ClassGuarded {
			layer = "core.guarded"
		}
		var v *core.Verdict
		d, err := r.capped(rctx, layer, func(ctx context.Context) (err error) {
			v, err = core.DecideContext(ctx, lrs, cv, core.DecideOptions{})
			return err
		})
		r.direct += d
		if err == nil {
			r.layer(layer).size += float64(v.ShapeCount + v.NodeTypeCount)
		}
		for _, rung := range rungs {
			if !rung.Applicable(lrs, cv) {
				continue
			}
			var verdict portfolio.Verdict
			r.capped(rctx, "portfolio."+rung.Name(), func(ctx context.Context) (err error) {
				verdict, _, err = rung.DecideContext(ctx, lrs, cv, portfolio.Options{})
				return err
			})
			if verdict != portfolio.Undecided {
				r.layer("portfolio."+rung.Name()).hits++
			}
		}
		d, _ = r.capped(rctx, "portfolio.run", func(ctx context.Context) error {
			_, err := portfolio.Run(ctx, lrs, cv, portfolio.Options{})
			return err
		})
		r.ladder += d
		if rctx.Err() != nil {
			break
		}
		if err := r.chase(rctx, in, rs); stop(err) {
			break
		}
	}

	for k := range traced {
		if resp := traced[k].resp; resp != nil {
			var raw []byte
			var err error
			r.time("api.response_encode", func() { raw, err = json.Marshal(resp) })
			if err != nil {
				return n, err
			}
			r.layer("api.response_encode").size += float64(len(raw)) / 1024
		}
	}

	l := r.layer
	res.set("api.request_decode_us", "us", l("api.request_decode").meanUs())
	enc := l("api.response_encode")
	res.set("api.response_encode_us", "us", enc.meanUs())
	res.set("api.response_kb", "KiB", ratio(enc.size, float64(enc.calls)))
	res.set("parse.rules_us", "us", l("parse.rules").meanUs())
	res.set("parse.db_facts_per_s", "1/s", ratio(r.dbFacts, l("parse.db").total.Seconds()))
	res.set("chaseterm.fingerprint_us", "us", l("chaseterm.fingerprint").meanUs())
	res.set("chaseterm.classify_us", "us", l("chaseterm.classify").meanUs())
	res.set("chaseterm.render_ms", "ms", l("chaseterm.render").meanMs())
	res.set("acyclicity.weak_us", "us", l("acyclicity.weak").meanUs())
	res.set("acyclicity.rich_us", "us", l("acyclicity.rich").meanUs())
	res.set("acyclicity.joint_us", "us", l("acyclicity.joint").meanUs())
	lin, gua := l("core.linear"), l("core.guarded")
	res.set("core.linear_ms", "ms", lin.meanMs())
	res.set("core.linear_shapes", "count", ratio(lin.size, float64(lin.calls)))
	res.set("core.guarded_ms", "ms", gua.meanMs())
	res.set("core.guarded_node_types", "count", ratio(gua.size, float64(gua.calls)))
	res.set("core.guarded_max_ms", "ms", ms(gua.max))
	for _, rung := range rungs {
		rt := l("portfolio." + rung.Name())
		res.set("portfolio."+rung.Name()+".ms", "ms", rt.meanMs())
		res.set("portfolio."+rung.Name()+".decided_ratio", "ratio", ratio(float64(rt.hits), float64(rt.calls)))
	}
	res.set("portfolio.ladder_over_direct", "ratio", ratio(r.ladder.Seconds(), r.direct.Seconds()))
	res.set("critical.instance_us", "us", l("critical.instance").meanUs())
	mfa := l("critical.mfa")
	res.set("critical.mfa_ms", "ms", mfa.meanMs())
	res.set("critical.mfa_triggers", "count", ratio(mfa.size, float64(mfa.calls)))
	eng := l("chase.engine")
	res.set("chase.engine_ms", "ms", eng.meanMs())
	res.set("chase.engine_facts_per_s", "1/s", ratio(r.engineFacts, eng.total.Seconds()))
	res.set("chase.trigger_yield", "ratio", ratio(r.engineFacts, r.enqueued))
	res.set("chase.parallel_ratio", "ratio", ratio(r.par1.Seconds(), r.par2.Seconds()))
	res.set("instance.load_ms", "ms", l("instance.load").meanMs())
	res.record["replay_capped_calls"] = r.cut
	return n, nil
}

// chase times the chase-side layers on one input: database parsing,
// instance loading, the engine at one and two workers, and, for chase
// requests, the facade's rendering of the result.
func (r *replayer) chase(ctx context.Context, in replayInput, rs *chaseterm.RuleSet) error {
	lrs := rs.Internal()
	atoms, dbText, opts := in.db, in.req.Database, chase.Options{}
	if atoms == nil {
		atoms = critical.Facts(lrs)
		dbText = atomsText(atoms)
		opts = oracleBudget
	}
	variant := chase.SemiOblivious
	fv := chaseterm.SemiOblivious
	switch in.variant {
	case "o":
		variant, fv = chase.Oblivious, chaseterm.Oblivious
	case "r":
		variant, fv = chase.Restricted, chaseterm.Restricted
	}
	var db *chaseterm.Database
	var err error
	r.time("parse.db", func() { db, err = chaseterm.ParseDatabase(dbText) })
	if err != nil {
		return err
	}
	r.dbFacts += float64(db.Size())
	r.time("instance.load", func() { _, err = instance.FromAtoms(atoms) })
	if err != nil {
		return err
	}
	var r1 *chase.Result
	d1 := r.time("chase.engine", func() {
		o := opts
		o.Workers = 1
		r1, err = chase.RunFromAtomsContext(ctx, atoms, lrs, variant, o)
	})
	if err != nil {
		return err
	}
	r.engineFacts += float64(r1.Stats.FactsAdded)
	r.enqueued += float64(r1.Stats.TriggersEnqueued)
	t0 := time.Now()
	o := opts
	o.Workers = 2
	if _, err := chase.RunFromAtomsContext(ctx, atoms, lrs, variant, o); err != nil {
		return err
	}
	r.par1 += d1
	r.par2 += time.Since(t0)
	if in.db == nil {
		// No decide request renders facts, and rendering the deep Skolem
		// terms of a budget-bound critical chase would only time this
		// replay.
		return nil
	}
	rep, err := chaseterm.Analyzer{}.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeChase, rs,
		chaseterm.WithDatabase(db), chaseterm.WithVariant(fv)))
	if err != nil {
		return err
	}
	r.time("chaseterm.render", func() { rep.Chase.Facts() })
	return nil
}

// stop reports whether the replay must end: its deadline passed. Any
// other error of a layer call, such as a search budget exhausted on one
// input, only leaves that call's figures out.
func stop(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
