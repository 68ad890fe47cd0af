package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzAnalyze: whatever bytes arrive on POST /v2/analyze, the answer is
// never 500, which means a recovered panic or an error no code
// classifies. Tiny budgets and a short job timeout keep every input
// cheap. Runs its seed corpus under plain `go test`; explore further
// with `go test -fuzz=FuzzAnalyze ./internal/service`.
func FuzzAnalyze(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"decide","rules":"person(X) -> hasFather(X,Y), person(Y).","variant":"o","portfolio":true}`,
		`{"kind":"decide","rules":"g(X,Y), gate(X) -> g(Y,Z).","database":"g(a,b). gate(a).","variant":"o"}`,
		`{"kind":"chase","rules":"p(X) -> q(X,Y).","database":"p(a).","variant":"r","returnFacts":true}`,
		`{"kind":"classify","rules":"p(X) -> q(X).","withAcyclicity":true}`,
		`{"kind":"decide","rules":"p(X,Y) -> p(Y,Z). p(X,X) -> p(X,Z).","maxShapes":1}`,
		`{"kind":"decide","rules":"g(X,Y), gate(X) -> g(Y,Z).","maxNodeTypes":2}`,
		`{"kind":"chase","rules":"p(X,Y) -> p(Y,Z).","database":"p(a,b).","maxTriggers":3}`,
	} {
		f.Add([]byte(seed))
	}
	e := New(Options{Workers: 1, JobTimeout: 250 * time.Millisecond})
	f.Cleanup(e.Close)
	h := NewHandler(e)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/analyze", bytes.NewReader(body)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("500 for %q: %s", body, rec.Body)
		}
	})
}
