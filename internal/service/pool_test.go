package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chaseterm/internal/obs"
)

func TestPoolRunsJobs(t *testing.T) {
	p := newWorkerPool(2)
	defer p.Close()
	v, err := p.Do(context.Background(), func(context.Context) (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("got (%v, %v)", v, err)
	}
}

// TestPoolTimeoutCancelsCleanly submits a job that blocks until its
// context is cancelled and requires Do to return the deadline error
// promptly, with the job function observing the cancellation.
func TestPoolTimeoutCancelsCleanly(t *testing.T) {
	p := newWorkerPool(1)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	observed := make(chan struct{})
	start := time.Now()
	_, err := p.Do(ctx, func(jctx context.Context) (any, error) {
		<-jctx.Done()
		close(observed)
		return nil, jctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Do took %v to observe a 30ms timeout", d)
	}
	select {
	case <-observed:
	case <-time.After(2 * time.Second):
		t.Fatal("job function never observed the cancellation")
	}
}

// TestPoolBoundsConcurrency checks the admission-control property: with
// W workers no more than W jobs run at once, whatever the offered load.
func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := newWorkerPool(workers)
	defer p.Close()
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(context.Background(), func(context.Context) (any, error) {
				n := running.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				running.Add(-1)
				return nil, nil
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs, want <= %d", got, workers)
	}
}

// TestPoolTimedOutJobStillOccupiesWorker pins the admission-control
// contract for abandoned work: a job whose caller timed out keeps its
// worker until the computation actually finishes, so abandoned analyses
// can never run beyond the W-worker bound.
func TestPoolTimedOutJobStillOccupiesWorker(t *testing.T) {
	p := newWorkerPool(1)
	defer p.Close()
	blocker := make(chan struct{})
	ctx1, cancel1 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel1()
	_, err := p.Do(ctx1, func(context.Context) (any, error) {
		<-blocker // ignores cancellation, like a mid-decision analysis
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first job: got %v, want deadline exceeded", err)
	}
	// The only worker must still be tied up by the abandoned job.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	_, err = p.Do(ctx2, func(context.Context) (any, error) { return 1, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second job ran while the worker should be occupied (err=%v)", err)
	}
	close(blocker) // let the abandoned computation wind down
	v, err := p.Do(context.Background(), func(context.Context) (any, error) { return 2, nil })
	if err != nil || v.(int) != 2 {
		t.Fatalf("worker never came back: (%v, %v)", v, err)
	}
}

// TestPoolRecoversPanickingJob is the regression test for the bare
// inner goroutine: a panic in a job function used to escape every
// recover on the handler stacks and kill the whole process. It must
// instead surface as an ErrPanic-wrapped error, and the worker must
// survive to run the next job.
func TestPoolRecoversPanickingJob(t *testing.T) {
	p := newWorkerPool(1)
	defer p.Close()
	for _, submit := range []func(context.Context, func(context.Context) (any, error)) (any, error){
		p.Do, p.DoSync,
	} {
		_, err := submit(context.Background(), func(context.Context) (any, error) {
			panic("oversized initial binding")
		})
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("got %v, want ErrPanic", err)
		}
		if !strings.Contains(err.Error(), "oversized initial binding") {
			t.Errorf("error %q does not carry the panic value", err)
		}
		// The single worker survived the panic.
		v, err := submit(context.Background(), func(context.Context) (any, error) { return 9, nil })
		if err != nil || v.(int) != 9 {
			t.Fatalf("worker did not survive the panic: (%v, %v)", v, err)
		}
	}
}

// TestPoolDoSyncWaitsForFn: DoSync must not return while fn is still
// running, even when the context has long expired — its callers touch
// state fn writes to.
func TestPoolDoSyncWaitsForFn(t *testing.T) {
	p := newWorkerPool(1)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	var finished atomic.Bool
	_, err := p.DoSync(ctx, func(jctx context.Context) (any, error) {
		<-jctx.Done()
		time.Sleep(50 * time.Millisecond) // simulate a slow wind-down
		finished.Store(true)
		return nil, jctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	if !finished.Load() {
		t.Fatal("DoSync returned before fn finished")
	}
}

func TestPoolClosedRejectsWork(t *testing.T) {
	p := newWorkerPool(1)
	p.Close()
	_, err := p.Do(context.Background(), func(context.Context) (any, error) { return nil, nil })
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestPoolQueuedCallerHonorsContext(t *testing.T) {
	p := newWorkerPool(1)
	defer p.Close()
	block := make(chan struct{})
	go p.Do(context.Background(), func(context.Context) (any, error) {
		<-block
		return nil, nil
	})
	defer close(block)
	time.Sleep(10 * time.Millisecond) // occupy the only worker
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := p.Do(ctx, func(context.Context) (any, error) { return nil, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued caller got %v, want deadline exceeded", err)
	}
}

// TestPoolQueueWaitEndsBeforeFn: the worker closes the queue-wait span
// before fn starts, so the span never overlaps execution — the submitter
// may be descheduled right after the handoff, and a span it closed
// would keep running while the job executes.
func TestPoolQueueWaitEndsBeforeFn(t *testing.T) {
	p := newWorkerPool(1)
	defer p.Close()
	started, block := make(chan struct{}), make(chan struct{})
	go p.Do(context.Background(), func(context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started // the only worker is busy
	go func() {
		for p.queued.Load() == 0 { // until the traced job waits in the queue
			time.Sleep(time.Millisecond)
		}
		close(block)
	}()
	tr := obs.GetTrace()
	defer obs.PutTrace(tr)
	ctx := obs.NewContext(context.Background(), tr)
	var atStart time.Duration
	if _, err := p.Do(ctx, func(context.Context) (any, error) {
		atStart = tr.Get(obs.SpanQueueWait)
		time.Sleep(50 * time.Millisecond)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if atStart <= 0 {
		t.Fatal("queue wait not recorded when fn started")
	}
	if got := tr.Get(obs.SpanQueueWait); got != atStart {
		t.Fatalf("queue wait grew from %v to %v while fn ran", atStart, got)
	}
}
