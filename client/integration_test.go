package client

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"chaseterm/api"
	"chaseterm/internal/service"
)

// TestClientAgainstRealService is the end-to-end acceptance test of the
// v2 contract: the real engine behind the real handler, driven through
// the real client — api types on the wire in both directions.
func TestClientAgainstRealService(t *testing.T) {
	eng := service.New(service.Options{Workers: 2})
	defer eng.Close()
	srv := httptest.NewServer(service.NewHandler(eng))
	defer srv.Close()

	c := New(srv.URL)
	ctx := context.Background()

	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	// Decide: the paper's Example 1 is non-terminating for every variant
	// the exact procedures cover.
	resp, err := c.Analyze(ctx, api.AnalyzeRequest{
		Kind:  api.KindDecide,
		Rules: "person(X) -> hasFather(X,Y), person(Y).",
	})
	if err != nil {
		t.Fatalf("decide: %v", err)
	}
	if resp.Decision == nil || resp.Decision.Terminates != "non-terminating" {
		t.Fatalf("decide response: %+v", resp)
	}
	if resp.Class != "simple-linear" || len(resp.Fingerprint) != 64 {
		t.Errorf("classification block: %+v", resp)
	}

	// The same decision again must be a cache hit end-to-end.
	resp, err = c.Analyze(ctx, api.AnalyzeRequest{
		Kind:  api.KindDecide,
		Rules: "person(X) -> hasFather(X,Y), person(Y).",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("repeat decide not served from cache through the client")
	}

	// Chase with facts and the acyclicity ladder attached.
	resp, err = c.Analyze(ctx, api.AnalyzeRequest{
		Kind:           api.KindChase,
		Rules:          "professor(X) -> teaches(X,C). teaches(X,C) -> course(C).",
		Database:       "professor(turing).",
		Variant:        "r",
		ReturnFacts:    true,
		WithAcyclicity: true,
	})
	if err != nil {
		t.Fatalf("chase: %v", err)
	}
	if resp.Chase == nil || resp.Chase.Outcome != "terminated" || len(resp.Chase.Facts) == 0 {
		t.Fatalf("chase response: %+v", resp.Chase)
	}
	if resp.Acyclicity == nil || !resp.Acyclicity.WeaklyAcyclic {
		t.Errorf("attached acyclicity: %+v", resp.Acyclicity)
	}

	// Server-side failures surface as typed errors with stable codes.
	_, err = c.Analyze(ctx, api.AnalyzeRequest{Kind: api.KindDecide, Rules: "this is not a rule"})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest || apiErr.HTTPStatus != 400 {
		t.Fatalf("bad rules: err %v, want typed bad_request", err)
	}
	// Not weakly acyclic, so the ladder climbs to the guarded-exact
	// rung, where a node-type cap of one gives up.
	_, err = c.Analyze(ctx, api.AnalyzeRequest{
		Kind:         api.KindDecide,
		Rules:        "gate(X,Y), live(X) -> out(Y,Z), live(Z). out(Y,Z) -> gate(Y,Z).",
		MaxNodeTypes: 1,
	})
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnprocessable {
		t.Fatalf("budget exhaustion: err %v, want typed unprocessable", err)
	}

	// Streaming end-to-end: the same chase consumed incrementally must
	// deliver exactly the derived facts, then the done event.
	var streamed []string
	done, err := c.ChaseStream(ctx, api.AnalyzeRequest{
		Rules:    "professor(X) -> teaches(X,C). teaches(X,C) -> course(C).",
		Database: "professor(turing).",
		Variant:  "r",
	}, func(ev api.StreamEvent) error {
		streamed = append(streamed, ev.Facts...)
		return nil
	})
	if err != nil {
		t.Fatalf("chase stream: %v", err)
	}
	if done.Outcome != "terminated" || done.Stats == nil {
		t.Fatalf("stream done event: %+v", done)
	}
	if len(streamed) != done.Stats.FactsAdded || len(streamed) != resp.Chase.Stats.FactsAdded {
		t.Errorf("streamed %d facts; done reports %d, one-shot chase derived %d",
			len(streamed), done.Stats.FactsAdded, resp.Chase.Stats.FactsAdded)
	}

	// Batch through the client: ordered results, inline per-job errors.
	results, err := c.Batch(ctx, []api.AnalyzeRequest{
		{Kind: api.KindClassify, Rules: "p(X) -> q(X)."},
		{Kind: api.KindDecide, Rules: "broken"},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(results) != 2 || results[0].Class != "simple-linear" {
		t.Fatalf("batch results: %+v", results)
	}
	if results[1].Error == nil || results[1].Error.Code != api.CodeBadRequest {
		t.Errorf("batch entry error: %+v", results[1].Error)
	}
}
