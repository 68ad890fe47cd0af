// Command chased serves chase-termination analysis over HTTP: the
// decision procedures of "Chase Termination for Guarded Existential
// Rules" (Calautti, Gottlob, Pieris; PODS 2015) behind a concurrent
// engine with a content-addressed verdict cache and a worker pool.
//
// Usage:
//
//	chased [-addr :8080] [-workers N] [-cache-size N] [-timeout 30s]
//	       [-pprof addr] [-log-json] [-log-level info] [-slow-request 0]
//	       [-store verdicts.db] [-fsync always|interval|never]
//
// -workers bounds the analyses that run at once, chases included; each
// chase runs on one sequential engine.
//
// -store enables the persistent verdict store: decide verdicts are
// written through to a crash-safe append-only file and survive process
// restarts, so a restarted replica answers repeat decisions from disk
// instead of recomputing them. -fsync picks the durability policy
// (default interval: a background sync every second). Store failures
// are never fatal — the server degrades to memory-only serving, flips
// the chased_store_degraded gauge and the /healthz detail, and retries
// reopening with exponential backoff.
//
// Endpoints — the versioned contract (package api; kind in the body):
//
//	POST /v2/analyze       {"kind": "classify|decide|chase|acyclicity", "rules": "...", ...}
//	POST /v2/batch         {"jobs": [...]}                  fan a job list across the pool
//	POST /v2/chase/stream  {"rules": "...", ...}            NDJSON chase stream; closing the
//	                                                        connection aborts the run
//	GET  /healthz                                           liveness
//	GET  /v1/stats                                          cache + latency + stream counters
//	GET  /metrics                                           Prometheus text exposition format
//
// Every all-instance decide climbs the termination portfolio (cheap
// sound criteria first, the paper's exact procedures last) and names
// its deciding rung as "decidedBy"; "portfolio": true adds the per-rung
// trace.
//
// Every request gets an X-Request-ID (generated, or propagated from the
// client's header), echoed on the response and carried in the one
// structured log record each job emits. -log-json switches those
// records to JSON; -slow-request raises requests at or over the
// threshold to WARN.
//
// Errors carry machine-readable codes in the envelope
// {"error": {"code": "...", "message": "..."}, "requestId": "..."};
// package client is the Go client for this contract.
//
// Example:
//
//	curl -s localhost:8080/v2/analyze \
//	  -d '{"kind": "decide", "rules": "person(X) -> hasFather(X,Y), person(Y)."}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chaseterm/internal/service"
	"chaseterm/internal/store"
)

type config struct {
	addr        string
	workers     int
	cacheSize   int
	timeout     time.Duration
	pprofAddr   string
	logJSON     bool
	logLevel    string
	slowRequest time.Duration
	storePath   string
	fsync       string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.workers, "workers", 0, "concurrent analyses (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.cacheSize, "cache-size", 0, "verdict cache entries (0 = 1024)")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-job timeout")
	flag.StringVar(&cfg.pprofAddr, "pprof", "",
		"serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty = disabled")
	flag.BoolVar(&cfg.logJSON, "log-json", false, "emit log records as JSON (default: logfmt-style text)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "minimum log level: debug, info, warn, error")
	flag.DurationVar(&cfg.slowRequest, "slow-request", 0,
		"log requests at or over this duration at WARN with slow=true (0 = disabled)")
	flag.StringVar(&cfg.storePath, "store", "",
		"persist decide verdicts to this file across restarts; empty = memory-only")
	flag.StringVar(&cfg.fsync, "fsync", "interval",
		"store durability policy: always (sync every write), interval (sync every second), never")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: chased [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	logger, err := newLogger(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chased:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Once the first signal starts the graceful drain, restore default
	// signal handling so a second Ctrl-C / SIGTERM force-kills instead of
	// being swallowed while the server waits for stragglers.
	go func() { <-ctx.Done(); stop() }()
	if err := run(ctx, cfg, logger, nil); err != nil {
		logger.Error("exiting", "error", err.Error())
		os.Exit(1)
	}
}

// newLogger builds the process logger from the -log-json and -log-level
// flags.
func newLogger(cfg config) (*slog.Logger, error) {
	var level slog.Level
	if err := level.UnmarshalText([]byte(cfg.logLevel)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", cfg.logLevel, err)
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if cfg.logJSON {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h), nil
}

// run starts the engine and serves until ctx is cancelled, then shuts
// down gracefully. ready, when non-nil, receives the bound address once
// the listener is up (used by tests binding port 0).
func run(ctx context.Context, cfg config, logger *slog.Logger, ready func(net.Addr)) error {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	// The verdict store is wrapped in the Resilient degrader: a missing
	// disk at boot, a full disk mid-run, a corrupt file — all of them
	// degrade to memory-only serving (with a reopen loop backing off in
	// the background) instead of failing the process or its requests.
	var verdicts store.VerdictStore
	if cfg.storePath != "" {
		policy, err := store.ParseFsyncPolicy(cfg.fsync)
		if err != nil {
			return fmt.Errorf("bad -fsync %q: %w", cfg.fsync, err)
		}
		res := store.NewResilient(func() (store.VerdictStore, error) {
			return store.Open(cfg.storePath, store.Options{Fsync: policy})
		}, store.WithLogger(logger))
		defer res.Close() //nolint:errcheck // final sync failure has no one left to tell
		verdicts = res
		logger.Info("verdict store enabled",
			"path", cfg.storePath, "fsync", policy.String(), "degraded", res.Degraded())
	}

	eng := service.New(service.Options{
		Workers:     cfg.workers,
		CacheSize:   cfg.cacheSize,
		JobTimeout:  cfg.timeout,
		Logger:      logger,
		SlowRequest: cfg.slowRequest,
		Store:       verdicts,
	})
	defer eng.Close()

	// Profiling is opt-in and on its own listener, so the analysis port
	// never exposes pprof: bind -pprof to localhost in production.
	if cfg.pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		logger.Info("pprof listening", "url", fmt.Sprintf("http://%s/debug/pprof/", pln.Addr()))
		psrv := &http.Server{Handler: pm, ReadHeaderTimeout: 10 * time.Second}
		// Tie the profiler's lifetime to the run context so repeated run()
		// calls (tests, embedders) don't leak the listener.
		stopPprof := context.AfterFunc(ctx, func() { psrv.Close() })
		defer stopPprof()
		go func() {
			if err := psrv.Serve(pln); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server", "error", err.Error())
			}
		}()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	eff := eng.Config()
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"workers", eff.Workers,
		"cacheSize", eff.CacheSize,
		"timeout", eff.JobTimeout.String(),
	)
	if ready != nil {
		ready(ln.Addr())
	}

	srv := &http.Server{
		Handler:           service.NewHandler(eng),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Graceful drain: Shutdown stops accepting connections and waits
		// for in-flight handlers to write their responses. Every job the
		// handlers can be stuck in is context-aware and bounded by the
		// per-job timeout, so the drain completes within roughly one
		// JobTimeout; the grace period adds headroom for the final writes.
		logger.Info("shutting down, draining in-flight requests")
		//chaselint:ignore ctxflow the serve ctx is already done here; the drain deadline needs a detached root
		shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.timeout+5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
