package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"chaseterm/internal/chase"
	"chaseterm/internal/logic"
	"chaseterm/internal/parse"
	"chaseterm/internal/workload"
)

// TestFixedDBKnownCases: termination on a specific database can differ
// from all-instance termination — the database may not feed the dangerous
// cycle.
func TestFixedDBKnownCases(t *testing.T) {
	cases := []struct {
		name  string
		rules string
		db    string
		want  Answer // CT^so on this database
	}{
		{
			// Example 2 diverges on p(a,b) (the paper's own computation)…
			name:  "example2-feeds",
			rules: `p(X,Y) -> p(Y,Z).`,
			db:    `p(a,b).`,
			want:  NonTerminating,
		},
		{
			// …and diverges on any p-fact, but an EMPTY p relation is
			// inert: a database without p-atoms never triggers the rule.
			name:  "example2-starved",
			rules: `p(X,Y) -> p(Y,Z).`,
			db:    `q(a).`,
			want:  Terminating,
		},
		{
			// The gate example: with the gate armed on a cycle of g-atoms
			// the recursion re-feeds itself? No: gate(a) only, invented
			// values never gated — still terminating.
			name:  "gate-armed",
			rules: `g(X,Y), gate(X) -> g(Y,Z).`,
			db:    `g(a,a). gate(a).`,
			want:  Terminating,
		},
		{
			// With the re-arming head the same database diverges.
			name:  "gate-rearmed",
			rules: `g(X,Y), gate(X) -> g(Y,Z), gate(Y).`,
			db:    `g(a,a). gate(a).`,
			want:  NonTerminating,
		},
		{
			// But the re-arming rules on an unarmed database terminate.
			name:  "gate-rearmed-unarmed",
			rules: `g(X,Y), gate(X) -> g(Y,Z), gate(Y).`,
			db:    `g(a,a).`,
			want:  Terminating,
		},
		{
			// A database constant that prints quoted is the same constant
			// as the rules' 'Bob', so the database feeds the recursion.
			name:  "quoted-constant",
			rules: `p('Bob',X) -> p('Bob',Y), q(X,Y).`,
			db:    `p('Bob',a).`,
			want:  NonTerminating,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rs := parse.MustParseRules(tc.rules)
			db := parse.MustParseFacts(tc.db)
			var got Answer
			if rs.Classify() <= logic.ClassLinear {
				res, err := DecideLinearOnContext(context.Background(), rs, db, chase.SemiOblivious, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got = res.Verdict.Answer
			} else {
				res, err := DecideGuardedOnContext(context.Background(), rs, db, chase.SemiOblivious, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got = res.Answer
			}
			if got != tc.want {
				t.Errorf("got %v, want %v", got, tc.want)
			}
			// Empirical corroboration on the actual database.
			run, err := chase.RunFromAtomsContext(context.Background(), db, rs, chase.SemiOblivious,
				chase.Options{MaxTriggers: 5000, MaxFacts: 5000})
			if err != nil {
				t.Fatal(err)
			}
			emp := Terminating
			if run.Outcome != chase.Terminated {
				emp = NonTerminating
			}
			if emp != tc.want {
				t.Errorf("oracle says %v", emp)
			}
		})
	}
}

// TestFixedDBRandomLinear cross-validates DecideLinearOn against direct
// chase runs on random databases.
func TestFixedDBRandomLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation")
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 250; i++ {
		rs := workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3, RepeatProb: 0.4})
		db := workload.RandomABox(rng, rs, 4, 2)
		dec, err := DecideLinearOnContext(context.Background(), rs, db, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		run, err := chase.RunFromAtomsContext(context.Background(), db, rs, chase.SemiOblivious,
			chase.Options{MaxTriggers: 8000, MaxFacts: 8000})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		emp := Terminating
		if run.Outcome != chase.Terminated {
			emp = NonTerminating
		}
		if emp != dec.Verdict.Answer {
			t.Errorf("case %d: decider=%v oracle=%v\nrules:\n%sdb: %v",
				i, dec.Verdict.Answer, emp, rs, db)
		}
	}
}

// TestFixedDBRandomGuarded cross-validates DecideGuardedOn.
func TestFixedDBRandomGuarded(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation")
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 120; i++ {
		rs := workload.RandomGuarded(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 2, MaxSideAtoms: 1})
		db := workload.RandomABox(rng, rs, 3, 2)
		dec, err := DecideGuardedOnContext(context.Background(), rs, db, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		run, err := chase.RunFromAtomsContext(context.Background(), db, rs, chase.SemiOblivious,
			chase.Options{MaxTriggers: 8000, MaxFacts: 8000})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		emp := Terminating
		if run.Outcome != chase.Terminated {
			emp = NonTerminating
		}
		if emp != dec.Answer {
			t.Errorf("case %d: decider=%v oracle=%v\nrules:\n%sdb: %v",
				i, dec.Answer, emp, rs, db)
		}
	}
}

// TestFixedDBImpliedByAllInstance: all-instance termination implies
// termination on every specific database.
func TestFixedDBImpliedByAllInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 120; i++ {
		rs := workload.RandomLinear(rng, workload.Config{NumPreds: 3, MaxArity: 2, NumRules: 3})
		all, err := DecideLinearContext(context.Background(), rs, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if all.Verdict.Answer != Terminating {
			continue
		}
		db := workload.RandomABox(rng, rs, 5, 3)
		fixed, err := DecideLinearOnContext(context.Background(), rs, db, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fixed.Verdict.Answer != Terminating {
			t.Errorf("case %d: CT^so holds but fixed-db says %v", i, fixed.Verdict.Answer)
		}
	}
}

func TestFixedDBRejectsNonGround(t *testing.T) {
	rs := parse.MustParseRules(`p(X) -> q(X).`)
	bad := []logic.Atom{logic.NewAtom("p", logic.Variable("X"))}
	if _, err := DecideLinearOnContext(context.Background(), rs, bad, chase.SemiOblivious, Options{}); err == nil {
		t.Error("non-ground database accepted by DecideLinearOn")
	}
	if _, err := DecideGuardedOnContext(context.Background(), rs, bad, chase.SemiOblivious, Options{}); err == nil {
		t.Error("non-ground database accepted by DecideGuardedOn")
	}
}

// TestDeciderMethods pins the method each exact decider names: the
// guarded decider tags its aux(Σ) and fixed-database runs itself, and
// the linear decider its fixed-database runs.
func TestDeciderMethods(t *testing.T) {
	ctx := context.Background()
	lin := parse.MustParseRules(`p(X,Y) -> p(Y,Z).`)
	gd := parse.MustParseRules(`g(X,Y), gate(X) -> g(Y,Z).`)
	db := parse.MustParseFacts(`g(a,b). gate(a). p(a,b).`)
	linear := func(v chase.Variant, db []logic.Atom) (*Verdict, error) {
		res, err := decideLinearSeeded(ctx, lin, v, db, Options{})
		if err != nil {
			return nil, err
		}
		return res.Verdict, nil
	}
	for _, tc := range []struct {
		name string
		run  func() (*Verdict, error)
		want string
	}{
		{"linear/so", func() (*Verdict, error) { return linear(chase.SemiOblivious, nil) }, "critical-weak-acyclicity"},
		{"linear/o", func() (*Verdict, error) { return linear(chase.Oblivious, nil) }, "critical-rich-acyclicity"},
		{"linear/so/db", func() (*Verdict, error) { return linear(chase.SemiOblivious, db) }, "critical-weak-acyclicity(fixed-db)"},
		{"linear/o/db", func() (*Verdict, error) { return linear(chase.Oblivious, db) }, "critical-rich-acyclicity(fixed-db)"},
		{"guarded/so", func() (*Verdict, error) { return DecideGuardedContext(ctx, gd, chase.SemiOblivious, Options{}) }, "guarded-forest"},
		{"guarded/o", func() (*Verdict, error) { return DecideGuardedContext(ctx, gd, chase.Oblivious, Options{}) }, "guarded-forest(aux)"},
		{"guarded/so/db", func() (*Verdict, error) { return DecideGuardedOnContext(ctx, gd, db, chase.SemiOblivious, Options{}) }, "guarded-forest(fixed-db)"},
		{"guarded/o/db", func() (*Verdict, error) { return DecideGuardedOnContext(ctx, gd, db, chase.Oblivious, Options{}) }, "guarded-forest(aux,fixed-db)"},
	} {
		v, err := tc.run()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if v.Method != tc.want {
			t.Errorf("%s: method %q, want %q", tc.name, v.Method, tc.want)
		}
	}
}

// TestFixedDBManyConstants: a database over 260 distinct constants (more
// than a one-byte id could name) is decided, and each verdict agrees with
// a bounded chase of that database.
func TestFixedDBManyConstants(t *testing.T) {
	db := parse.MustParseFacts(`g(c0,c1).`)
	for i := 0; i < 260; i++ {
		db = append(db, logic.NewAtom("gate", logic.Constant(fmt.Sprintf("c%d", i))))
	}
	for _, tc := range []struct {
		rules string
		want  Answer
	}{
		// The gate holds of constants only: the recursion stops two
		// steps below the database.
		{`g(X,Y), gate(X) -> g(Y,Z).`, Terminating},
		// The head re-arms the gate for every invented value.
		{`g(X,Y), gate(X) -> g(Y,Z), gate(Y).`, NonTerminating},
	} {
		rs := parse.MustParseRules(tc.rules)
		dec, err := DecideGuardedOnContext(context.Background(), rs, db, chase.SemiOblivious, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.rules, err)
		}
		if dec.Answer != tc.want {
			t.Errorf("%s: decider says %v, want %v", tc.rules, dec.Answer, tc.want)
		}
		run, err := chase.RunFromAtomsContext(context.Background(), db, rs, chase.SemiOblivious,
			chase.Options{MaxTriggers: 5000, MaxFacts: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if emp := run.Outcome == chase.Terminated; emp != (tc.want == Terminating) {
			t.Errorf("%s: bounded chase outcome %v, want %v", tc.rules, run.Outcome, tc.want)
		}
	}
}
