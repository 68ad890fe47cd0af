package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"chaseterm"
	"chaseterm/api"
	"chaseterm/internal/obs"
)

// maxBodyBytes bounds request bodies; rule sets are text and even the
// paper's hardest instances are tiny, so 8 MiB is generous.
const maxBodyBytes = 8 << 20

// NewHandler serves the engine over HTTP.
//
// The versioned contract (package api, kind in the body):
//
//	POST /v2/analyze       api.AnalyzeRequest  → api.AnalyzeResponse
//	POST /v2/batch         api.BatchRequest    → api.BatchResponse
//	POST /v2/chase/stream  api.AnalyzeRequest  → NDJSON api.StreamEvents
//
// And the operational endpoints:
//
//	GET  /healthz
//	GET  /v2/capabilities
//	GET  /v1/stats
//	GET  /metrics   (Prometheus text exposition format)
//
// Every request is assigned a request ID — the client's X-Request-ID
// header when present, a generated one otherwise — which is echoed as
// the X-Request-ID response header, carried on error bodies, and used
// in the server's structured logs.
//
// Status codes: client mistakes 400, oversized bodies 413, analyses
// that exhausted their search budget 422, client hang-ups 499, engine
// shutdown 503, job timeouts 504. Error bodies are the envelope
// {"error": {"code": "...", "message": "..."}, "requestId": "..."}.
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v2/analyze", func(w http.ResponseWriter, r *http.Request) {
		// The handler owns the request's trace so the decode span and
		// the engine's spans land on the same record. Recycled only on
		// success: an errored job may still be winding down on a worker
		// with the trace in hand.
		tr := obs.GetTrace()
		ctx := obs.NewContext(r.Context(), tr)
		var req api.AnalyzeRequest
		t0 := time.Now()
		apiErr := decodeStrict(w, r, &req)
		tr.Add(obs.SpanDecode, time.Since(t0))
		if apiErr != nil {
			writeV2Error(w, r, apiErr)
			obs.PutTrace(tr)
			return
		}
		resp, err := e.Analyze(ctx, req)
		if err != nil {
			writeV2Error(w, r, toAPIError(err))
			return
		}
		writeJSON(w, http.StatusOK, resp)
		obs.PutTrace(tr)
	})

	mux.HandleFunc("POST /v2/batch", func(w http.ResponseWriter, r *http.Request) {
		var body api.BatchRequest
		if apiErr := decodeStrict(w, r, &body); apiErr != nil {
			writeV2Error(w, r, apiErr)
			return
		}
		// No handler-owned trace here: the batch fans out into
		// concurrent jobs, and each Engine.Analyze call creates its own.
		results, err := e.AnalyzeBatch(r.Context(), body.Jobs)
		if err != nil {
			writeV2Error(w, r, toAPIError(err))
			return
		}
		writeJSON(w, http.StatusOK, api.BatchResponse{Results: results})
	})

	mux.HandleFunc("POST /v2/chase/stream", func(w http.ResponseWriter, r *http.Request) {
		tr := obs.GetTrace()
		ctx := obs.NewContext(r.Context(), tr)
		var req api.AnalyzeRequest
		t0 := time.Now()
		apiErr := decodeStrict(w, r, &req)
		tr.Add(obs.SpanDecode, time.Since(t0))
		if apiErr != nil {
			writeV2Error(w, r, apiErr)
			obs.PutTrace(tr)
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			writeV2Error(w, r, &api.Error{Code: api.CodeInternal, Message: "transport does not support streaming"})
			obs.PutTrace(tr)
			return
		}
		// emit is called synchronously from the producing job (the
		// handler goroutine blocks in ChaseStream until the producer has
		// fully finished, so the ResponseWriter is never written
		// concurrently). Each event is one NDJSON line, flushed
		// immediately so facts reach the client as they are derived.
		enc := json.NewEncoder(w)
		started := false
		emit := func(ev api.StreamEvent) {
			if !started {
				started = true
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
			}
			enc.Encode(ev) //nolint:errcheck // a failed write means the client is gone; r.Context() aborts the producer
			flusher.Flush()
		}
		// A non-nil error means the stream never started (nothing was
		// emitted) and the failure is reported at the transport level;
		// mid-stream failures arrive as terminal "error" events instead.
		// ChaseStream recycles the trace itself (its DoSync barrier makes
		// that safe on every path), so no PutTrace here.
		if err := e.ChaseStream(ctx, req, emit); err != nil {
			writeV2Error(w, r, toAPIError(err))
		}
	})

	// Health stays 200 even while the store is degraded: the process is
	// serving (memory-only), and failing readiness over a cache tier
	// would turn a disk hiccup into an outage. The body says which.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.Health())
	})
	mux.HandleFunc("GET /v2/capabilities", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Capabilities())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.StatsSnapshot())
	})
	mux.Handle("GET /metrics", e.MetricsHandler())
	return withRequestID(mux)
}

// MetricsHandler serves the engine's metrics in the Prometheus text
// exposition format; NewHandler mounts it as GET /metrics.
func (e *Engine) MetricsHandler() http.Handler { return e.metrics.reg }

// Capabilities describes the feature set of this build of the service —
// the body of GET /v2/capabilities. It is a function of the binary, not
// of engine state, so clients may cache it for a server's lifetime.
func Capabilities() api.Capabilities {
	return api.Capabilities{
		Version:        api.Version,
		Portfolio:      true,
		PortfolioRungs: chaseterm.PortfolioRungNames(),
	}
}

// withRequestID assigns every request its identifier: the client's
// X-Request-ID when present (so IDs propagate through proxies and
// multi-hop call chains), a generated one otherwise. The ID is echoed
// as a response header and carried down the context for the engine's
// logs and traces.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		next.ServeHTTP(w, r.WithContext(obs.WithRequestID(r.Context(), id)))
	})
}

// decodeStrict decodes the body as exactly one JSON value: unknown
// fields are rejected (they are typos, not extensions), and so is
// trailing data after the top-level value — a second Decode must report
// io.EOF, otherwise the client concatenated two bodies or truncated its
// buffer arithmetic, and silently analyzing only the first value would
// mask that bug. Returns nil on success.
func decodeStrict(w http.ResponseWriter, r *http.Request, dst any) *api.Error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &api.Error{Code: api.CodeTooLarge, Message: "malformed request: " + err.Error()}
		}
		return &api.Error{Code: api.CodeBadRequest, Message: "malformed request: " + err.Error()}
	}
	switch err := dec.Decode(new(json.RawMessage)); {
	case errors.Is(err, io.EOF):
		return nil
	case err == nil, errors.Is(err, io.ErrUnexpectedEOF), isSyntaxError(err):
		// A second complete value, a truncated one, or non-JSON bytes:
		// the client really did send data after its body.
		return &api.Error{Code: api.CodeBadRequest, Message: "malformed request: trailing data after the JSON body"}
	default:
		// The probe failed to *read*, not to parse — blaming the client
		// for trailing data would mislabel the failure. The one expected
		// cause is the body cap firing on the probe read (the first value
		// fit, the whole body did not), which is an oversize condition.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &api.Error{Code: api.CodeTooLarge, Message: "malformed request: " + err.Error()}
		}
		return &api.Error{Code: api.CodeBadRequest, Message: "malformed request: reading body: " + err.Error()}
	}
}

// isSyntaxError reports whether err is a JSON syntax error — bytes that
// were read fine but do not parse.
func isSyntaxError(err error) bool {
	var syn *json.SyntaxError
	return errors.As(err, &syn)
}

// writeV2Error writes the versioned error envelope, carrying the
// request's ID so a client can quote it against the server's logs.
// Retryable failures (503s) also get a Retry-After header: the engine
// drains within one JobTimeout, so "1" is an honest floor for a
// shutting-down replica; package client reads the hint and waits it out
// instead of guessing.
func writeV2Error(w http.ResponseWriter, r *http.Request, apiErr *api.Error) {
	if apiErr.Code.Retryable() {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, apiErr.Code.HTTPStatus(), api.ErrorEnvelope{
		Error:     apiErr,
		RequestID: obs.RequestIDFromContext(r.Context()),
	})
}

// writeJSON writes v as one line of compact JSON, as the NDJSON stream
// does: indentation would be a fifth of a chase result's body. Pipe a
// response through jq to read it.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // nothing to do about a failed write
}
