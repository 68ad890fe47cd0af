package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chaseterm/internal/obs"
)

// ErrClosed is returned for work submitted after the pool shut down.
var ErrClosed = errors.New("service: engine closed")

// ErrPanic wraps a panic recovered from a job function: the analysis
// crashed, but the worker and the process survive. The HTTP layer maps
// it to 500 / "internal". (This is reachable from request handling —
// e.g. the matcher panics on an oversized initial binding — so a bare
// goroutine here would let one bad request kill the whole server.)
var ErrPanic = errors.New("service: analysis panicked")

// workerPool bounds the number of decision procedures and chase runs
// executing at once. Callers block in Do until a worker picks up the
// job and finishes it (or the context expires), so the pool also acts
// as admission control: with W workers at most W analyses run
// concurrently no matter how many requests are in flight.
type workerPool struct {
	jobs chan poolJob
	stop chan struct{}
	wg   sync.WaitGroup

	// queued counts callers blocked in submit waiting for a worker to
	// pick their job up — the pool's queue depth, exported as a gauge.
	queued atomic.Int64

	closeOnce sync.Once
}

type poolJob struct {
	ctx context.Context
	fn  func(context.Context) (any, error)
	res chan outcome
	// enq is when the job was submitted; the worker that takes it ends
	// the queue wait there, before fn starts.
	enq time.Time
	// sync makes Do wait for fn itself to return, never merely for the
	// context — see DoSync.
	sync bool
}

type outcome struct {
	val any
	err error
}

func newWorkerPool(workers int) *workerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &workerPool{
		jobs: make(chan poolJob),
		stop: make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case j := <-p.jobs:
			p.run(j)
		}
	}
}

// run executes one job with cancellation. The function runs in an inner
// goroutine so that an expired context unblocks the caller immediately;
// the worker then stays on the job until the computation actually winds
// down — releasing it early would let abandoned analyses pile up past
// the W-worker admission bound. Job functions honor their context (the
// chase engine and the deciders poll it at trigger/fixpoint
// granularity), so after a cancellation the wait lasts at most one
// check interval rather than the job's full trigger/fact/shape budget.
//
// A panic inside the job is recovered in the inner goroutine — the one
// place it would otherwise escape every handler's stack and kill the
// process — and surfaced to the caller as an ErrPanic-wrapped error.
//
// The queue wait is recorded here, on the worker: the submitter may be
// descheduled after the handoff, and a span it closed late would overlap
// the job's execution.
func (p *workerPool) run(j poolJob) {
	obs.FromContext(j.ctx).Add(obs.SpanQueueWait, time.Since(j.enq))
	if err := j.ctx.Err(); err != nil {
		j.res <- outcome{err: err}
		return
	}
	inner := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				inner <- outcome{err: fmt.Errorf("%w: %v", ErrPanic, r)}
			}
		}()
		v, err := j.fn(j.ctx)
		inner <- outcome{val: v, err: err}
	}()
	if j.sync {
		j.res <- <-inner
		return
	}
	select {
	case o := <-inner:
		j.res <- o
	case <-j.ctx.Done():
		j.res <- outcome{err: j.ctx.Err()}
		<-inner
	}
}

// Do submits fn and waits for its result. It returns ctx.Err() if the
// context expires while queued or running, and ErrClosed if the pool
// shut down before the job was picked up.
func (p *workerPool) Do(ctx context.Context, fn func(context.Context) (any, error)) (any, error) {
	return p.submit(ctx, fn, false)
}

// DoSync is Do for callers that share state with fn — e.g. the
// streaming handler, whose fn writes to the caller's own
// http.ResponseWriter. It returns only after fn itself has returned,
// never merely because the context expired, so the caller can touch the
// shared state afterwards without racing a still-running job. The
// context still bounds the queue wait and cancels fn cooperatively.
func (p *workerPool) DoSync(ctx context.Context, fn func(context.Context) (any, error)) (any, error) {
	return p.submit(ctx, fn, true)
}

func (p *workerPool) submit(ctx context.Context, fn func(context.Context) (any, error), sync bool) (any, error) {
	j := poolJob{ctx: ctx, fn: fn, res: make(chan outcome, 1), sync: sync, enq: time.Now()}
	p.queued.Add(1)
	select {
	case p.jobs <- j:
		// A worker took the job and records the queue wait (see run).
		p.queued.Add(-1)
	case <-ctx.Done():
		p.queued.Add(-1)
		obs.FromContext(ctx).Add(obs.SpanQueueWait, time.Since(j.enq))
		return nil, ctx.Err()
	case <-p.stop:
		p.queued.Add(-1)
		return nil, ErrClosed
	}
	o := <-j.res
	return o.val, o.err
}

// Close stops the workers. Jobs already picked up finish; queued callers
// that have not been picked up receive ErrClosed from Do.
func (p *workerPool) Close() {
	p.closeOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}
