package service

import (
	"encoding/json"
	"errors"

	"chaseterm/api"
	"chaseterm/internal/store"
)

// The engine's use of the verdict store is strictly best-effort: the
// store is a second cache tier, so every failure mode — backend error,
// corrupt payload, degraded wrapper — degrades to "miss, recompute"
// and never to a failed request. Errors are counted (storeErrors), but
// a degraded wrapper's ErrDegraded is not: the transition that caused
// it was already counted and logged once, and billing every subsequent
// request against it would just restate one fault thousands of times.

// storeGet probes the persistent store for a decide verdict. It
// returns (nil, false) on any miss, error, or undecodable payload.
func (e *Engine) storeGet(key string) (*api.Decision, bool) {
	if e.store == nil {
		return nil, false
	}
	raw, ok, err := e.store.Get(key)
	if err != nil {
		if !errors.Is(err, store.ErrDegraded) {
			e.stats.storeErrors.Add(1)
		}
		return nil, false
	}
	if !ok {
		e.stats.storeMisses.Add(1)
		return nil, false
	}
	var d api.Decision
	if err := json.Unmarshal(raw, &d); err != nil {
		// The record passed its checksum, so these are valid bytes of a
		// different (older or newer) payload schema: treat as a miss and
		// let the write-through replace them.
		e.stats.storeErrors.Add(1)
		return nil, false
	}
	e.stats.storeHits.Add(1)
	return &d, true
}

// storePut writes a freshly computed verdict through to the store. The
// persisted payload is the wire-level api.Decision, the same value the
// memory cache holds, provenance included, so a store-warm response is
// indistinguishable from a memory-warm one.
func (e *Engine) storePut(key string, d *api.Decision) {
	if e.store == nil {
		return
	}
	raw, err := json.Marshal(d)
	if err != nil {
		return
	}
	if err := e.store.Put(key, raw); err != nil && !errors.Is(err, store.ErrDegraded) {
		e.stats.storeErrors.Add(1)
	}
}

// storeStatus returns the store's health summary, or nil when no store
// is configured or the backend cannot report one.
func (e *Engine) storeStatus() *store.Status {
	if e.store == nil {
		return nil
	}
	if sr, ok := e.store.(store.StatusReporter); ok {
		st := sr.Status()
		return &st
	}
	return &store.Status{Enabled: true}
}

// storeDegraded reports whether a configured store is currently
// serving degraded (false when no store is configured).
func (e *Engine) storeDegraded() bool {
	st := e.storeStatus()
	return st != nil && st.Degraded
}

// Health is the body of GET /healthz: overall status plus the store
// detail when persistence is configured. "degraded" means the process
// is serving (memory-only) but a dependency is down.
type Health struct {
	Status string        `json:"status"`
	Store  *store.Status `json:"store,omitempty"`
}

// Health summarizes the engine's ability to serve.
func (e *Engine) Health() Health {
	h := Health{Status: "ok", Store: e.storeStatus()}
	if h.Store != nil && h.Store.Degraded {
		h.Status = "degraded"
	}
	return h
}
