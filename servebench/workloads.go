package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"chaseterm/api"
	"chaseterm/client"
	"chaseterm/internal/store"
)

// A traced window keeps the responses of its first requests for the
// replay's encode timing: small decide answers, and a few chase answers,
// which run to hundreds of KiB each.
const (
	keepDecideResponses = 64
	keepChaseResponses  = 8
)

// bench holds one run's inputs, made before any timing, and settings.
type bench struct {
	cfg config

	// decide workloads: the rule-set pool and each entry's reference
	// verdict; decide_repeat also keeps each entry's canonical
	// fingerprint and the ring of disguised requests it sends.
	pool    []ruleItem
	poolRef []string
	poolFP  []string
	ring    []repeatItem

	// decide_fresh: what splicing each request's tag into its text
	// costs inside the window, for the run record.
	fillNs, fillBytes atomic.Int64

	// chase_materialize: the certified-terminating TBoxes and the ring
	// of requests with their reference results.
	tboxes []tbox
	chases []chaseItem

	inputs int64 // heap the inputs above hold, from inputBytes
}

// inputBytes estimates the heap the run's inputs hold while it is
// measured: the pool, the request rings and their texts. Strings the
// inputs share with the program's constants are not counted.
func (b *bench) inputBytes() int64 {
	n := int64(len(b.pool))*int64(unsafe.Sizeof(ruleItem{})) + int64(len(b.poolRef)+len(b.poolFP))*16 +
		int64(len(b.ring))*int64(unsafe.Sizeof(repeatItem{})) + int64(len(b.chases))*int64(unsafe.Sizeof(chaseItem{}))
	for _, it := range b.pool {
		n += 16 * int64(len(it.pieces))
		for _, p := range it.pieces {
			n += int64(len(p))
		}
	}
	for _, fp := range b.poolFP {
		n += int64(len(fp))
	}
	for _, r := range b.ring {
		n += int64(len(r.req.Rules))
	}
	for _, c := range b.chases {
		n += int64(len(c.dbText))
	}
	return n
}

// workloadDef is one workload: inputs made before any timing, a set-up
// that is timed as setup_s, the request issuer, and the reference check
// run after the window, where one is needed.
type workloadDef struct {
	setups  int // set-ups per untraced run; setup_s is their median
	prepare func(ctx context.Context, b *bench) error
	setup   func(ctx context.Context, b *bench, timed bool) (*server, error)
	issue   func(b *bench) issuer
	check   func(ctx context.Context, b *bench, w *window)
}

var workloads = map[string]workloadDef{
	"decide_fresh": {
		setups:  5,
		prepare: func(ctx context.Context, b *bench) error { return b.preparePool(ctx, false) },
		setup: func(ctx context.Context, b *bench, timed bool) (*server, error) {
			s := startServer(store.NewMemFS(), b.cfg.clients, timed)
			err := warm(ctx, s, b.cfg.warmDecides, func(ctx context.Context, cl *client.Client, i int, o *outcome) {
				sendDecide(ctx, cl, b.pool[i%len(b.pool)].request("_w"+strconv.Itoa(i)), i, false, o)
			})
			return s, err
		},
		issue: func(b *bench) issuer {
			return func(ctx context.Context, cl *client.Client, i int, traced bool, o *outcome) {
				t0 := time.Now()
				req := b.pool[i%len(b.pool)].request(freshTag(i))
				b.fillNs.Add(int64(time.Since(t0)))
				b.fillBytes.Add(int64(len(req.Rules)))
				sendDecide(ctx, cl, req, i, traced, o)
			}
		},
		// A fresh request's fingerprint is known only once its tagged
		// text is parsed, which is left until after the window.
		check: func(ctx context.Context, b *bench, w *window) {
			fanOut(len(w.samples), b.cfg.checkers, func(k int) {
				sm := &w.samples[k]
				if !sm.ok {
					return
				}
				i := int(sm.i)
				j := i % len(b.pool)
				fp, err := fingerprintOf(b.pool[j].text(freshTag(i)))
				msg := "reference fingerprint: " + fmt.Sprint(err)
				if err == nil {
					msg = verdictMismatch(sm.verdict, sm.fpHash, sm.decidedBy, &b.pool[j], fp, b.poolRef[j])
				}
				if msg != "" {
					w.fail(k, msg)
				}
			})
		},
	},
	"decide_repeat": {
		// Each set-up decides the whole pool, so two are enough.
		setups: 2,
		prepare: func(ctx context.Context, b *bench) error {
			if err := b.preparePool(ctx, true); err != nil {
				return err
			}
			b.ring = repeatRing(b.cfg.seed, b.pool, b.cfg.ringSize)
			return nil
		},
		setup: func(ctx context.Context, b *bench, timed bool) (*server, error) {
			// Fill the store through a first engine, restart over it,
			// then warm the memory cache with the end of the ring, so
			// the window continues the ring's popularity sequence.
			fs := store.NewMemFS()
			fill := startServer(fs, b.cfg.clients, false)
			err := warm(ctx, fill, len(b.pool), func(ctx context.Context, cl *client.Client, j int, o *outcome) {
				sendDecide(ctx, cl, b.pool[j].request(poolTag(j)), j, false, o)
			})
			fill.close()
			if err != nil {
				return nil, fmt.Errorf("filling the store: %w", err)
			}
			s := startServer(fs, b.cfg.clients, timed)
			n := len(b.ring)
			err = warm(ctx, s, b.cfg.warmRepeats, func(ctx context.Context, cl *client.Client, i int, o *outcome) {
				b.sendRepeat(ctx, cl, ((n-b.cfg.warmRepeats+i)%n+n)%n, false, o)
			})
			return s, err
		},
		issue: func(b *bench) issuer { return b.sendRepeat },
		// Pool references are computed before the run, so every answer
		// is checked as it arrives.
	},
	"chase_materialize": {
		setups: 5,
		prepare: func(ctx context.Context, b *bench) error {
			var err error
			if b.tboxes, err = pickTBoxes(ctx, 4); err != nil {
				return err
			}
			b.chases = make([]chaseItem, b.cfg.chaseRing)
			errs := make([]error, len(b.chases))
			fanOut(len(b.chases), b.cfg.checkers, func(k int) {
				it, db := chaseABox(b.cfg.seed, k, b.tboxes)
				tb := &b.tboxes[it.tbox]
				if it.restricted {
					it.all, errs[k] = restrictedResult(ctx, tb, db, it.dbText)
				} else {
					it.all, errs[k] = referenceSO(tb.rules, db, 2_000_000)
				}
				if errs[k] != nil {
					errs[k] = fmt.Errorf("reference for chase request %d: %w", k, errs[k])
				}
				it.derived = it.all.minus(digestOf(db))
				b.chases[k] = it
			})
			return errors.Join(errs...)
		},
		setup: func(ctx context.Context, b *bench, timed bool) (*server, error) {
			s := startServer(store.NewMemFS(), b.cfg.clients, timed)
			err := warm(ctx, s, b.cfg.warmChases, func(ctx context.Context, cl *client.Client, i int, o *outcome) {
				b.sendChase(ctx, cl, i, false, o)
			})
			return s, err
		},
		issue: func(b *bench) issuer { return b.sendChase },
		// Ring references are computed before the run, so every answer
		// is checked as it arrives.
	},
}

// freshTag is the predicate tag of decide_fresh request i.
func freshTag(i int) string { return "_" + strconv.Itoa(i) }

// preparePool draws the decide pool and computes every entry's
// reference verdict and, with fps, its canonical fingerprint.
func (b *bench) preparePool(ctx context.Context, fps bool) error {
	n := b.cfg.poolSize
	b.pool, b.poolRef = make([]ruleItem, n), make([]string, n)
	if fps {
		b.poolFP = make([]string, n)
	}
	errs := make([]error, n)
	fanOut(n, b.cfg.checkers, func(j int) {
		it, rs := poolEntry(b.cfg.seed, j)
		b.pool[j] = it
		b.poolRef[j], errs[j] = referenceAnswer(ctx, it.expect, rs, it.variant)
		if errs[j] == nil && fps {
			b.poolFP[j], errs[j] = fingerprintOf(it.text(poolTag(j)))
		}
	})
	return errors.Join(errs...)
}

// genOf names the generator behind decide request i.
func (b *bench) genOf(i int) string {
	j := i % len(b.pool)
	if b.ring != nil {
		j = b.ring[i%len(b.ring)].j
	}
	return decideGens[b.pool[j].gen].name
}

// warm sends n set-up requests, each client taking every len(clients)th
// one, and fails on the first failed request.
func warm(ctx context.Context, s *server, n int, send func(ctx context.Context, cl *client.Client, i int, o *outcome)) error {
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for c, cl := range s.clients {
		wg.Add(1)
		go func(c int, cl *client.Client) {
			defer wg.Done()
			for i := c; i < n; i += len(s.clients) {
				var o outcome
				send(ctx, cl, i, &o)
				if !o.ok() {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("set-up request %d: %s", i, o.fail)
					}
					mu.Unlock()
					return
				}
			}
		}(c, cl)
	}
	wg.Wait()
	return first
}

// verdictCode is a decide answer's verdict, one byte per request.
type verdictCode uint8

const (
	verdictNone verdictCode = iota
	verdictTerm
	verdictNonTerm
	verdictUnknown
	verdictOther
)

var verdictNames = [...]string{"none", "terminating", "non-terminating", "unknown", "unexpected"}

func (v verdictCode) String() string { return verdictNames[v] }

func verdictOf(s string) verdictCode {
	for v := verdictTerm; v < verdictOther; v++ {
		if verdictNames[v] == s {
			return v
		}
	}
	return verdictOther
}

// sendDecide sends one decide request and records its answer.
func sendDecide(ctx context.Context, cl *client.Client, req api.AnalyzeRequest, i int, traced bool, o *outcome) {
	req.Trace = traced
	var first time.Time
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GotFirstResponseByte: func() { first = time.Now() }})
	o.at = time.Now()
	resp, err := cl.Analyze(ctx, req)
	o.done = time.Now()
	o.lat = o.done.Sub(o.at)
	if !first.IsZero() {
		o.first = first.Sub(o.at)
	}
	if err != nil {
		o.fail = "decide request: " + err.Error()
		return
	}
	if resp.Decision == nil {
		o.fail = "decide response without a decision"
		return
	}
	o.verdict = verdictOf(resp.Decision.Terminates)
	o.fpHash = hashString(resp.Fingerprint)
	o.decidedBy = resp.Decision.DecidedBy != ""
	o.cached = resp.Cached
	o.trace = resp.Trace
	if traced && i < keepDecideResponses {
		o.resp = resp
	}
}

// sendRepeat sends decide_repeat request i, the ring's request i mod
// its length, and checks the answer against its pool entry's reference
// verdict and fingerprint.
func (b *bench) sendRepeat(ctx context.Context, cl *client.Client, i int, traced bool, o *outcome) {
	r := &b.ring[i%len(b.ring)]
	sendDecide(ctx, cl, r.req, i, traced, o)
	if o.ok() {
		o.fail = verdictMismatch(o.verdict, o.fpHash, o.decidedBy, &b.pool[r.j], b.poolFP[r.j], b.poolRef[r.j])
	}
}

// verdictMismatch describes how a decide answer differs from its
// reference, or returns "" when it does not.
func verdictMismatch(got verdictCode, fpHash uint64, decidedBy bool, it *ruleItem, fp, want string) string {
	switch {
	case got.String() != want:
		return fmt.Sprintf("verdict %s, reference %s (%s, %s)", got, want, decideGens[it.gen].name, it.variant)
	case fpHash != hashString(fp):
		return "fingerprint differs from the canonical one"
	case it.portfolio && !decidedBy:
		return "portfolio decision without provenance"
	}
	return ""
}

// seenPool recycles the sets that check a stream's batches for
// repeated facts.
var seenPool = sync.Pool{New: func() any { return map[uint64]struct{}{} }}

// sendChase sends chase request i, the ring's request i mod its length,
// on the streaming endpoint or as a one-shot analyze with returnFacts,
// and checks the answer: outcome, disjoint batches, fact counts, and
// the delivered fact set against the ring entry's reference result.
func (b *bench) sendChase(ctx context.Context, cl *client.Client, i int, traced bool, o *outcome) {
	it := &b.chases[i%len(b.chases)]
	req := it.request(b.tboxes)
	req.Trace = traced && !it.stream
	var initial, added int
	var outcomeName string
	var got, want factDigest
	if it.stream {
		want = it.derived
		seen := seenPool.Get().(map[uint64]struct{})
		defer func() {
			clear(seen)
			seenPool.Put(seen)
		}()
		var first time.Time
		o.at = time.Now()
		done, err := cl.ChaseStream(ctx, req, func(ev api.StreamEvent) error {
			if ev.Event != api.StreamFacts {
				return nil
			}
			if first.IsZero() {
				first = time.Now()
			}
			for _, f := range ev.Facts {
				h := hashString(f)
				if _, dup := seen[h]; dup && o.fail == "" {
					o.fail = "fact " + f + " streamed twice"
				}
				seen[h] = struct{}{}
				got.addHash(h)
			}
			return nil
		})
		end := time.Now()
		o.lat = end.Sub(o.at)
		if !first.IsZero() {
			o.first = first.Sub(o.at)
		}
		if err != nil {
			o.fail = "chase stream: " + err.Error()
			o.done = end
			return
		}
		outcomeName, initial, added = done.Outcome, done.Stats.InitialFacts, done.Stats.FactsAdded
		if o.fail == "" && got.n != added {
			o.fail = fmt.Sprintf("streamed %d facts, done event reports %d", got.n, added)
		}
	} else {
		want = it.all
		o.at = time.Now()
		resp, err := cl.Analyze(ctx, req)
		o.lat = time.Since(o.at)
		if err == nil && resp.Chase == nil {
			err = fmt.Errorf("response without a chase section")
		}
		if err != nil {
			o.fail = "chase request: " + err.Error()
			o.done = time.Now()
			return
		}
		facts := resp.Chase.Facts
		outcomeName, initial, added = resp.Chase.Outcome, resp.Chase.Stats.InitialFacts, resp.Chase.Stats.FactsAdded
		o.trace = resp.Trace
		if traced && i < keepChaseResponses {
			o.resp = resp
		}
		for k, f := range facts {
			if k > 0 && f <= facts[k-1] && o.fail == "" {
				o.fail = "returned facts are not distinct and sorted"
			}
			got.add(f)
		}
		if o.fail == "" && len(facts) != initial+added {
			o.fail = fmt.Sprintf("returned %d facts, stats report %d+%d", len(facts), initial, added)
		}
	}
	o.facts = added
	switch {
	case o.fail != "":
	case outcomeName != "terminated":
		o.fail = "chase outcome " + outcomeName
	case got != want:
		o.fail = fmt.Sprintf("%s result (%d facts) differs from the reference (%d facts)", it.variant(), got.n, want.n)
	}
	o.done = time.Now()
}
