package store

import (
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDegraded is returned by a Resilient store while it is serving
// degraded: the backend is unavailable and a reopen is pending. Callers
// treat it as a silent miss — the transition itself already surfaced
// the underlying error.
var ErrDegraded = errors.New("store: degraded, backend unavailable")

// Status is the health summary of a Resilient store, served on
// /healthz and sampled by the metrics gauges.
type Status struct {
	// Enabled is always true for a configured store; the service omits
	// the whole block when no store is configured.
	Enabled bool `json:"enabled"`
	// Degraded reports that the backend is down and verdicts are being
	// served memory-only while reopen attempts back off.
	Degraded bool `json:"degraded"`
	// LastError is the failure that caused the current or most recent
	// degradation, empty if the store has never degraded.
	LastError string `json:"lastError,omitempty"`
	// Transitions counts healthy→degraded flips over the process life.
	Transitions int64 `json:"transitions,omitempty"`
	// File summarizes the embedded backend when it is healthy and
	// file-based.
	File *FileStats `json:"file,omitempty"`
}

// StatusReporter is implemented by stores that can describe their
// health; the service's /healthz upgrades to it when present.
type StatusReporter interface {
	Status() Status
}

// Resilient wraps a VerdictStore with graceful degradation: any error
// from the backend (or from opening it in the first place) flips the
// wrapper into a degraded mode where Get and Put return ErrDegraded
// immediately — the service above keeps answering from memory — while
// a background goroutine retries opening the backend with exponential
// backoff. One WARN is logged per degradation and one INFO per
// recovery, never one per failed operation.
type Resilient struct {
	open   func() (VerdictStore, error)
	logger *slog.Logger
	base   time.Duration
	max    time.Duration
	stop   chan struct{}

	mu       sync.Mutex
	cur      VerdictStore // nil while degraded
	degraded bool
	lastErr  error
	retrying bool
	closed   bool

	transitions atomic.Int64
}

// ResilientOption configures NewResilient.
type ResilientOption func(*Resilient)

// WithLogger sets the transition logger (default: discard).
func WithLogger(l *slog.Logger) ResilientOption {
	return func(r *Resilient) {
		if l != nil {
			r.logger = l
		}
	}
}

// WithBackoff sets the reopen backoff bounds: the first retry waits
// base, each failure doubles the wait up to max (defaults 1s and 2m).
func WithBackoff(base, max time.Duration) ResilientOption {
	return func(r *Resilient) {
		if base > 0 {
			r.base = base
		}
		if max >= r.base {
			r.max = max
		}
	}
}

// NewResilient builds the wrapper and performs the first open. A
// failing first open is not fatal: the wrapper starts degraded with the
// retry loop already running, so a server whose disk is briefly missing
// at boot self-heals.
func NewResilient(open func() (VerdictStore, error), opts ...ResilientOption) *Resilient {
	r := &Resilient{
		open:   open,
		logger: slog.New(slog.DiscardHandler),
		base:   time.Second,
		max:    2 * time.Minute,
		stop:   make(chan struct{}),
	}
	for _, o := range opts {
		o(r)
	}
	st, err := open()
	if err != nil {
		r.mu.Lock()
		r.degradeLocked(err)
		r.mu.Unlock()
		return r
	}
	r.cur = st
	return r
}

// Get implements VerdictStore. While degraded it returns ErrDegraded
// without touching the backend.
func (r *Resilient) Get(key string) ([]byte, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, false, ErrClosed
	}
	if r.degraded {
		return nil, false, ErrDegraded
	}
	val, ok, err := r.cur.Get(key)
	if err != nil {
		r.degradeLocked(err)
		return nil, false, err
	}
	return val, ok, nil
}

// Put implements VerdictStore. While degraded it drops the write and
// returns ErrDegraded — the verdict stays in the memory cache and a
// future miss will recompute and re-persist it.
func (r *Resilient) Put(key string, val []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.degraded {
		return ErrDegraded
	}
	if err := r.cur.Put(key, val); err != nil {
		r.degradeLocked(err)
		return err
	}
	return nil
}

// Status implements StatusReporter.
func (r *Resilient) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{Enabled: true, Degraded: r.degraded, Transitions: r.transitions.Load()}
	if r.lastErr != nil {
		st.LastError = r.lastErr.Error()
	}
	if fs, ok := r.cur.(*FileStore); ok && !r.degraded {
		s := fs.Stats()
		st.File = &s
	}
	return st
}

// Degraded reports whether the wrapper is currently serving degraded.
func (r *Resilient) Degraded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.degraded
}

// Close shuts the wrapper and its backend; the retry goroutine (if
// running) exits on its next wakeup.
func (r *Resilient) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	close(r.stop)
	if r.cur != nil {
		err := r.cur.Close()
		r.cur = nil
		return err
	}
	return nil
}

// degradeLocked flips into degraded mode: the broken backend is closed
// and dropped, the transition is logged once, and the reopen loop
// starts (unless one is already backing off from a previous failure).
// Called with mu held.
func (r *Resilient) degradeLocked(cause error) {
	r.lastErr = cause
	if r.cur != nil {
		r.cur.Close() //nolint:errcheck // already broken; nothing to do with its close error
		r.cur = nil
	}
	if r.degraded {
		return
	}
	r.degraded = true
	r.transitions.Add(1)
	r.logger.Warn("verdict store degraded; serving memory-only",
		"error", cause.Error(), "retryIn", r.base.String())
	if !r.retrying {
		r.retrying = true
		//chaselint:owned exits via r.stop on Close, or on successful reopen; retrying flag makes it unique
		go r.reopenLoop()
	}
}

// reopenLoop retries open with exponential backoff until it succeeds
// or the wrapper closes.
func (r *Resilient) reopenLoop() {
	backoff := r.base
	for {
		t := time.NewTimer(backoff)
		select {
		case <-r.stop:
			t.Stop()
			return
		case <-t.C:
		}
		st, err := r.open()
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			if err == nil {
				st.Close() //nolint:errcheck // wrapper already closed; best-effort release
			}
			return
		}
		if err == nil {
			r.cur = st
			r.degraded = false
			r.retrying = false
			// Log before unlocking, as degradeLocked does for its WARN: a
			// caller that observes Degraded() == false must also find the
			// recovery record.
			r.logger.Info("verdict store recovered")
			r.mu.Unlock()
			return
		}
		r.lastErr = err
		r.mu.Unlock()
		r.logger.Debug("verdict store reopen failed", "error", err.Error(), "nextRetryIn", (backoff * 2).String())
		if backoff *= 2; backoff > r.max {
			backoff = r.max
		}
	}
}
