package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"chaseterm"
	"chaseterm/api"
	"chaseterm/internal/obs"
)

// streamRelay bridges the library's ChaseSink to the wire: every batch
// and heartbeat the facade delivers becomes one api.StreamEvent handed
// to emit. It runs on the producing job's goroutine; emitted is read by
// ChaseStream only after the producer has fully finished (DoSync), so
// no synchronization beyond the pool's result channel is needed.
type streamRelay struct {
	emit    func(api.StreamEvent)
	stats   *Stats
	emitted bool
}

func (s *streamRelay) EmitFacts(facts []string, st chaseterm.ChaseStats) {
	s.emitted = true
	s.stats.streamFacts.Add(int64(len(facts)))
	s.emit(api.StreamEvent{Event: api.StreamFacts, Facts: facts, Stats: apiChaseStats(st)})
}

func (s *streamRelay) Progress(st chaseterm.ChaseStats) {
	s.emitted = true
	s.emit(api.StreamEvent{Event: api.StreamProgress, Stats: apiChaseStats(st)})
}

// ChaseStream runs one chase job and delivers its result incrementally
// through emit as api.StreamEvents: "facts" batches and "progress"
// heartbeats while the run is live, then exactly one terminal "done" or
// "error" event. The producer runs inside a worker slot (admission
// control applies exactly as for Analyze) and is bounded by the per-job
// timeout; cancelling ctx — which the HTTP layer wires to the client
// connection — aborts the chase engine within one cancellation-check
// interval, so a dropped stream never runs to its full budget.
//
// Contract: a non-nil return means the stream never started — no event
// was emitted — and the error should be reported at the transport
// level. Once events have flowed, every outcome (completion,
// cancellation, timeout, panic) is delivered as a terminal event and
// ChaseStream returns nil.
func (e *Engine) ChaseStream(ctx context.Context, req api.AnalyzeRequest, emit func(api.StreamEvent)) error {
	if req.Kind == "" {
		// The route already names the analysis; an explicit kind is
		// only accepted when it agrees.
		req.Kind = api.KindChase
	}
	if req.Kind != api.KindChase {
		return fmt.Errorf("%w: streaming supports kind %q, got %q", ErrBadRequest, api.KindChase, req.Kind)
	}
	if req.WithAcyclicity {
		// The stream protocol has no event to carry an acyclicity
		// report; rejecting beats silently dropping the option.
		return fmt.Errorf("%w: withAcyclicity is not supported on the streaming endpoint", ErrBadRequest)
	}
	rules, err := chaseterm.ParseRules(req.Rules)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := checkBudgets(req); err != nil {
		return err
	}
	// ReturnFacts is deliberately inert here: the facts ARE the stream.
	opts, err := chaseRequestOptions(req, rules)
	if err != nil {
		return err
	}

	ctx, tr, owned := e.beginRequest(ctx)
	e.stats.inFlight.Add(1)
	defer e.stats.inFlight.Add(-1)
	e.stats.streams.Add(1)
	start := time.Now()

	// Every event — batches, heartbeats, terminals — counts once on the
	// stream-events series.
	counted := func(ev api.StreamEvent) {
		e.metrics.streamEvents.Add(1)
		emit(ev)
	}
	relay := &streamRelay{emit: counted, stats: e.stats}
	opts = append(opts, chaseterm.WithChaseSink(relay))

	jctx, cancel := context.WithTimeout(ctx, e.opts.JobTimeout)
	defer cancel()
	// DoSync (not Do): the producing fn emits onto the caller's writer,
	// so the call must not return while the producer is still running —
	// even on a context that fired. The engine's cancellation poll keeps
	// that residual wait to one check interval.
	val, runErr := e.pool.DoSync(jctx, func(ctx context.Context) (any, error) {
		return e.facade.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeChase, rules, opts...))
	})
	total := time.Since(start)
	queue, exec := e.endRequest(endpointStream, tr, total, runErr != nil)
	if rep, ok := val.(*chaseterm.Report); ok && rep != nil && rep.Engine != nil {
		e.metrics.addEngine(rep.Engine.TriggersApplied, rep.Engine.TriggersNoop,
			rep.Engine.TriggersSatisfied, rep.Engine.FactsAdded)
	}
	e.logRequest(ctx, endpointStream, api.KindChase, streamLogResponse(val), runErr, queue, exec, total)
	// DoSync guarantees the producer has returned, so nothing can still
	// record into the trace — safe to recycle even on error paths.
	if owned {
		defer obs.PutTrace(tr)
	}

	if runErr == nil {
		rep := val.(*chaseterm.Report)
		counted(api.StreamEvent{
			Event:   api.StreamDone,
			Outcome: rep.Chase.Outcome.String(),
			Stats:   apiChaseStats(rep.Chase.Stats),
		})
		return nil
	}
	// A canceled run that produced a partial report really was aborted
	// mid-flight; a cancellation with no report never entered the engine
	// (e.g. the client vanished while the job sat in the worker queue)
	// and must not count as an abort.
	partial, _ := val.(*chaseterm.Report)
	if errors.Is(runErr, context.Canceled) && partial != nil && partial.Chase != nil {
		e.stats.streamsAborted.Add(1)
	}
	if !relay.emitted {
		// Nothing reached the client yet — a queue-wait timeout, an
		// immediately-canceled request, engine shutdown, or a run that
		// failed before its first batch. A transport-level status is
		// strictly more useful than a 200 stream holding one error.
		return wrapExecErr(runErr)
	}
	ev := api.StreamEvent{Event: api.StreamError, Error: toAPIError(wrapExecErr(runErr))}
	if partial != nil && partial.Chase != nil {
		// A canceled run still reports how far it got.
		ev.Outcome = partial.Chase.Outcome.String()
		ev.Stats = apiChaseStats(partial.Chase.Stats)
	}
	counted(ev)
	return nil
}

// streamLogResponse distills whatever report the producer returned —
// complete or partial — into the response shape logRequest reads its
// fingerprint and outcome fields from.
func streamLogResponse(val any) *api.AnalyzeResponse {
	rep, ok := val.(*chaseterm.Report)
	if !ok || rep == nil {
		return nil
	}
	resp := &api.AnalyzeResponse{Kind: api.KindChase, Fingerprint: rep.Fingerprint}
	if rep.Chase != nil {
		resp.Chase = &api.ChaseRun{Outcome: rep.Chase.Outcome.String()}
	}
	return resp
}
