package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"chaseterm/api"
	"chaseterm/client"
	"chaseterm/internal/service"
	"chaseterm/internal/store"
)

// server is the serving stack under test, configured the way cmd/chased
// runs by default: GOMAXPROCS pool workers, a 1024-entry verdict cache,
// a 30s job timeout, the sequential chase, a FileStore inside Resilient
// with interval fsync, and request logging into a discard sink. The
// store lives on an in-memory filesystem so disk speed stays out of the
// figures.
type server struct {
	eng        *service.Engine
	ts         *httptest.Server
	res        *store.Resilient
	file       atomic.Pointer[store.FileStore] // the store Resilient has open
	timed      *timedStore
	clients    []*client.Client
	transports []*http.Transport
}

const storePath = "verdicts.log"

func startServer(fs *store.MemFS, nClients int, timed bool) *server {
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := &server{}
	s.res = store.NewResilient(func() (store.VerdictStore, error) {
		f, err := store.Open(storePath, store.Options{Fsync: store.FsyncInterval, FS: fs})
		if err != nil {
			return nil, err
		}
		s.file.Store(f)
		return f, nil
	}, store.WithLogger(discard))
	var vs store.VerdictStore = s.res
	if timed {
		s.timed = &timedStore{inner: s.res}
		vs = s.timed
	}
	s.eng = service.New(service.Options{
		Workers:      runtime.GOMAXPROCS(0),
		CacheSize:    1024,
		JobTimeout:   30 * time.Second,
		ChaseWorkers: 0,
		Store:        vs,
		Logger:       discard,
	})
	s.ts = httptest.NewServer(service.NewHandler(s.eng))
	for c := 0; c < nClients; c++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		s.transports = append(s.transports, tr)
		s.clients = append(s.clients, client.New(s.ts.URL, client.WithHTTPClient(&http.Client{Transport: tr})))
	}
	return s
}

// storeBytes is the length of the store's log. On MemFS the log lives
// in the Go heap; on a real deployment it is on disk.
func (s *server) storeBytes() int64 {
	if f := s.file.Load(); f != nil {
		return f.Stats().SizeBytes
	}
	return 0
}

// close shuts the stack down in dependency order; the store is closed
// last so its final sync covers every acknowledged write.
func (s *server) close() {
	for _, tr := range s.transports {
		tr.CloseIdleConnections()
	}
	s.ts.Close()
	s.eng.Close()
	s.res.Close() //nolint:errcheck // MemFS sync cannot fail without a hook
}

// timedStore times every call into the verdict store from outside.
type timedStore struct {
	inner       store.VerdictStore
	getNs, gets atomic.Int64
	putNs, puts atomic.Int64
}

func (t *timedStore) Get(key string) ([]byte, bool, error) {
	t0 := time.Now()
	v, ok, err := t.inner.Get(key)
	t.getNs.Add(int64(time.Since(t0)))
	t.gets.Add(1)
	return v, ok, err
}

func (t *timedStore) Put(key string, val []byte) error {
	t0 := time.Now()
	err := t.inner.Put(key, val)
	t.putNs.Add(int64(time.Since(t0)))
	t.puts.Add(1)
	return err
}

func (t *timedStore) Close() error { return t.inner.Close() }

// reset zeroes the counters, so a window counts only its own calls.
func (t *timedStore) reset() {
	t.getNs.Store(0)
	t.gets.Store(0)
	t.putNs.Store(0)
	t.puts.Store(0)
}

// Status forwards the health report, so wrapping changes nothing the
// engine can observe.
func (t *timedStore) Status() store.Status {
	if sr, ok := t.inner.(store.StatusReporter); ok {
		return sr.Status()
	}
	return store.Status{Enabled: true}
}

// outcome is what one request left behind while it is handled. The
// window keeps it whole only when tracing; otherwise it is folded into
// the request's sample.
type outcome struct {
	i     int
	at    time.Time     // when the request was sent
	done  time.Time     // end of the request's own work, inline checks included
	lat   time.Duration // send → complete answer
	first time.Duration // send → first facts event or first response byte; 0 if none
	facts int           // derived facts delivered
	fail  string        // non-empty: the request failed or its answer was wrong

	// decide answers
	verdict   verdictCode
	fpHash    uint64 // hash of the reported fingerprint
	decidedBy bool   // the decision names the rung that made it
	cached    bool

	trace *api.Trace           // the server's spans, on traced requests
	resp  *api.AnalyzeResponse // kept for the traced replay's encode timing
}

func (o *outcome) ok() bool { return o.fail == "" }

// issuer sends request i through cl and records its outcome.
type issuer func(ctx context.Context, cl *client.Client, i int, traced bool, o *outcome)

// sample is what every request keeps until the end of the run: its
// timing, and what a check after the window needs of a decide answer.
type sample struct {
	end, lat, first time.Duration // end is relative to the window start
	i               int32
	facts           int32
	fpHash          uint64
	verdict         verdictCode
	ok, cached      bool
	decidedBy       bool
}

const sampleBytes = int64(unsafe.Sizeof(sample{}))

// window is the result of one closed-loop measurement.
type window struct {
	samples []sample
	outs    []outcome // traced windows: every request's outcome, for its span tree
	mu      sync.Mutex
	fails   []string // the first few failure messages
	begin   time.Time
	length  time.Duration
	allocB  uint64
	heap    heapPeak
}

// completedOK counts the answered-and-correct requests that finished
// inside the window.
func (w *window) completedOK() int {
	n := 0
	for _, sm := range w.samples {
		if sm.ok && sm.end <= w.length {
			n++
		}
	}
	return n
}

// fail marks sample k failed by a check after the window.
func (w *window) fail(k int, msg string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.samples[k].ok = false
	if len(w.fails) < 5 {
		w.fails = append(w.fails, fmt.Sprintf("request %d: %s", w.samples[k].i, msg))
	}
}

// runWindow drives a closed loop: every client sends its next request
// as soon as the previous one is answered, until length has passed.
// Requests still in flight at the deadline are waited for and kept.
// Indices are handed out in order starting at 0, so every window of a
// run replays the same request sequence. A traced window also keeps
// each request's full outcome.
func runWindow(ctx context.Context, s *server, length time.Duration, traced bool, inputs int64, issue issuer) *window {
	var next atomic.Int64
	type clientLog struct {
		samples []sample
		outs    []outcome
		fails   []string
	}
	logs := make([]clientLog, len(s.clients))
	// The inputs and the samples are the benchmark's own memory: the
	// heap figure leaves them out, and the store's log with them.
	var own atomic.Int64
	own.Store(inputs)
	stopHeap := make(chan struct{})
	peak := make(chan heapPeak, 1)
	go sampleHeap(stopHeap, peak, func() (int64, int64) { return own.Load(), s.storeBytes() })
	alloc0 := heapAllocs()
	start := time.Now()
	var wg sync.WaitGroup
	for c, cl := range s.clients {
		wg.Add(1)
		go func(log *clientLog, cl *client.Client) {
			defer wg.Done()
			for time.Since(start) < length && ctx.Err() == nil {
				o := outcome{i: int(next.Add(1) - 1)}
				issue(ctx, cl, o.i, traced, &o)
				sm := sample{end: o.at.Add(o.lat).Sub(start), lat: o.lat, first: o.first, i: int32(o.i), facts: int32(o.facts),
					fpHash: o.fpHash, verdict: o.verdict, ok: o.ok(), cached: o.cached, decidedBy: o.decidedBy}
				if !sm.ok && len(log.fails) < 5 {
					log.fails = append(log.fails, fmt.Sprintf("request %d: %s", o.i, o.fail))
				}
				if traced {
					log.outs = append(log.outs, o)
				}
				c0 := cap(log.samples)
				log.samples = append(log.samples, sm)
				if c := cap(log.samples); c != c0 {
					own.Add(int64(c-c0) * sampleBytes)
				}
			}
		}(&logs[c], cl)
	}
	wg.Wait()
	w := &window{begin: start, length: length, allocB: heapAllocs() - alloc0}
	close(stopHeap)
	w.heap = <-peak
	for _, log := range logs {
		w.samples = append(w.samples, log.samples...)
		w.outs = append(w.outs, log.outs...)
		w.fails = append(w.fails, log.fails...)
	}
	return w
}

// liveHeap is the heap the last GC cycle found live. Unlike the heap in
// use, it leaves out the headroom the GC pacer grants in proportion to
// everything live, so the bytes subtracted from it do not come back as
// headroom.
const liveHeap = "/gc/heap/live:bytes"

// heapPeak is the result of sampling the heap through a window.
type heapPeak struct {
	bytes     uint64 // the reported peak, the benchmark's own memory left out
	ownBytes  int64  // the benchmark's inputs and samples at the end of the window
	storeLog  int64  // the store's log at the end of the window
	intervals int    // one-second slices behind the median
}

// sampleHeap samples the live Go heap every 2ms until stop closes, less
// the bytes that exclude reports: the benchmark's own inputs and
// samples, and the store's log. It sends the median over one-second
// slices of each slice's highest sample: the typical peak, which one
// badly timed GC cycle does not move.
func sampleHeap(stop <-chan struct{}, peak chan<- heapPeak, exclude func() (own, storeLog int64)) {
	samples := []metrics.Sample{{Name: liveHeap}}
	var slicePeaks []float64
	var hi int64
	sliceEnd := time.Now().Add(time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(samples)
		own, storeLog := exclude()
		hi = max(hi, int64(samples[0].Value.Uint64())-own-storeLog)
		select {
		case <-stop:
			if len(slicePeaks) == 0 {
				slicePeaks = append(slicePeaks, float64(hi))
			}
			peak <- heapPeak{bytes: uint64(median(slicePeaks)), ownBytes: own, storeLog: storeLog, intervals: len(slicePeaks)}
			return
		case now := <-tick.C:
			if now.After(sliceEnd) {
				slicePeaks = append(slicePeaks, float64(hi))
				hi = 0
				sliceEnd = now.Add(time.Second)
			}
		}
	}
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// fanOut runs f(0..n-1) on k goroutines and waits for all of them.
func fanOut(n, k int, f func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
