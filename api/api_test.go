package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures under testdata/")

func intp(v int) *int { return &v }

// goldenCases enumerates one fully-populated value per wire type. The
// golden files under testdata/ pin the exact serialized form: an
// accidental field rename, tag typo, or omitempty change fails the
// byte comparison loudly instead of silently breaking deployed
// clients.
func goldenCases() []struct {
	file  string
	value any
} {
	return []struct {
		file  string
		value any
	}{
		{"analyze_request.json", &AnalyzeRequest{
			Kind:           KindDecide,
			Rules:          "person(X) -> hasFather(X,Y), person(Y).",
			Variant:        "so",
			Database:       "person(bob).",
			MaxShapes:      1000,
			MaxNodeTypes:   2000,
			MaxTriggers:    3000,
			MaxFacts:       4000,
			MaxDepth:       5,
			ReturnFacts:    true,
			WithAcyclicity: true,
			Portfolio:      true,
			Trace:          true,
		}},
		{"analyze_response_classify.json", &AnalyzeResponse{
			Kind:        KindClassify,
			Fingerprint: "2f7a000000000000000000000000000000000000000000000000000000000000",
			Class:       "simple-linear",
			NumRules:    intp(1),
			MaxArity:    intp(2),
			Predicates:  []string{"hasFather/2", "person/1"},
		}},
		{"analyze_response_decide.json", &AnalyzeResponse{
			Kind:        KindDecide,
			Fingerprint: "2f7a000000000000000000000000000000000000000000000000000000000000",
			Class:       "simple-linear",
			NumRules:    intp(1),
			MaxArity:    intp(2),
			Predicates:  []string{"hasFather/2", "person/1"},
			Cached:      true,
			Decision: &Decision{
				Terminates: "non-terminating",
				Class:      "simple-linear",
				Method:     "weak-acyclicity(SL)",
				Witness:    "dangerous cycle (weak): person[1] -> person[1]",
				DecidedBy:  "weak-acyclicity",
			},
		}},
		{"analyze_response_chase.json", &AnalyzeResponse{
			Kind:        KindChase,
			Fingerprint: "2f7a000000000000000000000000000000000000000000000000000000000000",
			Class:       "simple-linear",
			NumRules:    intp(1),
			MaxArity:    intp(2),
			Predicates:  []string{"hasFather/2", "person/1"},
			Chase: &ChaseRun{
				Outcome: "terminated",
				Stats: ChaseStats{
					InitialFacts:      1,
					FactsAdded:        2,
					TriggersApplied:   3,
					TriggersNoop:      4,
					TriggersSatisfied: 5,
					MaxTermDepth:      6,
				},
				Facts: []string{"hasFather(bob,z1)", "person(bob)", "person(z1)"},
			},
		}},
		{"analyze_response_acyclicity.json", &AnalyzeResponse{
			Kind:        KindAcyclicity,
			Fingerprint: "2f7a000000000000000000000000000000000000000000000000000000000000",
			Class:       "general",
			NumRules:    intp(2),
			MaxArity:    intp(2),
			Predicates:  []string{"p/1", "q/2"},
			Acyclicity: &Acyclicity{
				RichlyAcyclic:  false,
				WeaklyAcyclic:  false,
				JointlyAcyclic: false,
				RAWitness:      "special cycle through q[2]",
				WAWitness:      "dangerous cycle through q[2]",
				JAWitness:      "feeds cycle (joint): rule#1:Y -> rule#1:Y",
			},
		}},
		{"analyze_response_portfolio.json", &AnalyzeResponse{
			Kind:        KindDecide,
			Fingerprint: "2f7a000000000000000000000000000000000000000000000000000000000000",
			Class:       "linear",
			NumRules:    intp(2),
			MaxArity:    intp(2),
			Predicates:  []string{"p/2", "q/2"},
			Decision: &Decision{
				Terminates:  "terminating",
				Class:       "linear",
				Method:      "critical-weak-acyclicity",
				SearchSpace: 9,
				DecidedBy:   "linear-exact",
				Rungs: []Rung{
					{Name: "weak-acyclicity", Verdict: "undecided", Millis: 0.02},
					{Name: "joint-acyclicity", Verdict: "undecided", Millis: 0.03},
					{Name: "mfa", Verdict: "undecided", Millis: 1.4},
					{Name: "linear-exact", Verdict: "terminating", Millis: 2.1},
				},
			},
		}},
		{"capabilities.json", &Capabilities{
			Version:   "v2",
			Portfolio: true,
			PortfolioRungs: []string{
				"rich-acyclicity", "weak-acyclicity", "joint-acyclicity",
				"mfa", "critical-saturation", "linear-exact", "guarded-exact",
			},
		}},
		{"batch_request.json", &BatchRequest{
			Jobs: []AnalyzeRequest{
				{Kind: KindClassify, Rules: "p(X) -> q(X)."},
				{Kind: KindChase, Rules: "p(X) -> q(X,Y).", Database: "p(a).", Variant: "r"},
			},
		}},
		{"batch_response.json", &BatchResponse{
			Results: []AnalyzeResponse{
				{
					Kind:        KindClassify,
					Fingerprint: "2f7a000000000000000000000000000000000000000000000000000000000000",
					Class:       "simple-linear",
					NumRules:    intp(1),
					MaxArity:    intp(1),
					Predicates:  []string{"p/1", "q/1"},
				},
				{
					Kind:  KindDecide,
					Error: &Error{Code: CodeBadRequest, Message: "parse: unexpected token"},
				},
			},
		}},
		{"error_envelope.json", &ErrorEnvelope{
			Error:     &Error{Code: CodeUnavailable, Message: "engine is shutting down"},
			RequestID: "9f2c1a07-42",
		}},
		{"analyze_response_traced.json", &AnalyzeResponse{
			Kind:        KindChase,
			Fingerprint: "2f7a000000000000000000000000000000000000000000000000000000000000",
			Class:       "simple-linear",
			NumRules:    intp(1),
			MaxArity:    intp(2),
			Predicates:  []string{"hasFather/2", "person/1"},
			Chase: &ChaseRun{
				Outcome: "budget-exceeded",
				Stats: ChaseStats{
					InitialFacts:    1,
					FactsAdded:      3000,
					TriggersApplied: 3000,
					MaxTermDepth:    3000,
				},
			},
			Trace: &Trace{
				RequestID:  "9f2c1a07-42",
				WallMillis: 12.75,
				Spans: []Span{
					{Name: "decode", Millis: 0.08},
					{Name: "queueWait", Millis: 0.5},
					{Name: "chase", Millis: 12.1},
				},
				Engine: &EngineStats{
					InitialFacts:     1,
					FactsAdded:       3000,
					TriggersApplied:  3000,
					TriggersEnqueued: 3001,
					MaxTermDepth:     3000,
				},
			},
		}},
		{"stream_event_facts.json", &StreamEvent{
			Event: StreamFacts,
			Facts: []string{"hasFather(bob,f0_Y(bob))", "person(f0_Y(bob))"},
			Stats: &ChaseStats{InitialFacts: 1, FactsAdded: 2, TriggersApplied: 1},
		}},
		{"stream_event_progress.json", &StreamEvent{
			Event: StreamProgress,
			Stats: &ChaseStats{InitialFacts: 1, FactsAdded: 512, TriggersApplied: 1024, TriggersSatisfied: 512},
		}},
		{"stream_event_done.json", &StreamEvent{
			Event:   StreamDone,
			Outcome: "terminated",
			Stats:   &ChaseStats{InitialFacts: 1, FactsAdded: 4096, TriggersApplied: 4096, MaxTermDepth: 3},
		}},
		{"stream_event_error.json", &StreamEvent{
			Event:   StreamError,
			Outcome: "canceled",
			Stats:   &ChaseStats{InitialFacts: 1, FactsAdded: 2048, TriggersApplied: 2048},
			Error:   &Error{Code: CodeCanceled, Message: "client disconnected mid-stream"},
		}},
	}
}

// TestGoldenRoundTrip: for every wire type, marshal → compare against
// the pinned fixture → unmarshal the fixture → deep-equal the original.
func TestGoldenRoundTrip(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.file, func(t *testing.T) {
			got, err := json.MarshalIndent(tc.value, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to generate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("serialized form drifted from the fixture.\ngot:\n%s\nwant:\n%s", got, want)
			}

			// Round trip: the fixture decodes back to the original value.
			back := reflect.New(reflect.TypeOf(tc.value).Elem()).Interface()
			if err := json.Unmarshal(want, back); err != nil {
				t.Fatalf("fixture does not decode: %v", err)
			}
			if !reflect.DeepEqual(back, tc.value) {
				t.Errorf("round trip lost data.\ngot:  %+v\nwant: %+v", back, tc.value)
			}
		})
	}
}

// TestGoldenFieldsStrict: every fixture must decode with unknown fields
// disallowed — i.e. the fixtures only use field names the types still
// declare. A renamed Go field leaves a stale name in the fixture and
// fails here even if the byte comparison were regenerated carelessly.
func TestGoldenFieldsStrict(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			back := reflect.New(reflect.TypeOf(tc.value).Elem()).Interface()
			if err := dec.Decode(back); err != nil {
				t.Errorf("fixture has fields the type no longer declares: %v", err)
			}
		})
	}
}

func TestKindValid(t *testing.T) {
	for _, k := range []Kind{KindClassify, KindDecide, KindChase, KindAcyclicity} {
		if !k.Valid() {
			t.Errorf("%q reported invalid", k)
		}
	}
	for _, k := range []Kind{"", "mystery", "Decide"} {
		if k.Valid() {
			t.Errorf("%q reported valid", k)
		}
	}
}

func TestStreamEventTerminal(t *testing.T) {
	for ev, want := range map[StreamEventType]bool{
		StreamFacts:    false,
		StreamProgress: false,
		StreamDone:     true,
		StreamError:    true,
	} {
		if got := ev.Terminal(); got != want {
			t.Errorf("%s.Terminal() = %v, want %v", ev, got, want)
		}
	}
}

func TestCodeHTTPStatus(t *testing.T) {
	cases := map[Code]int{
		CodeBadRequest:    400,
		CodeTooLarge:      413,
		CodeUnprocessable: 422,
		CodeTimeout:       504,
		CodeCanceled:      499,
		CodeUnavailable:   503,
		CodeInternal:      500,
		Code("future"):    500,
	}
	for code, want := range cases {
		if got := code.HTTPStatus(); got != want {
			t.Errorf("%s → %d, want %d", code, got, want)
		}
	}
	if !CodeUnavailable.Retryable() || CodeTimeout.Retryable() {
		t.Error("retryability misclassified")
	}
}

func TestErrorString(t *testing.T) {
	e := &Error{Code: CodeBadRequest, Message: "no rules"}
	if e.Error() != "bad_request: no rules" {
		t.Errorf("got %q", e.Error())
	}
	bare := &Error{Message: "just text"}
	if bare.Error() != "just text" {
		t.Errorf("got %q", bare.Error())
	}
}
