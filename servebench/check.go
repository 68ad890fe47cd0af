package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"

	"chaseterm"

	"chaseterm/internal/chase"
	"chaseterm/internal/critical"
	"chaseterm/internal/logic"
)

// oracleBudget is the bounded critical-instance chase that arbitrates
// decide verdicts, as in the deciders' cross-validation tests: a chase
// that saturates within it proves termination, one that exhausts it is
// taken as non-termination.
var oracleBudget = chase.Options{MaxTriggers: 6000, MaxFacts: 6000}

// oracleAnswer returns the reference verdict of a rule set.
func oracleAnswer(ctx context.Context, rs *logic.RuleSet, variant string) (string, error) {
	v := chase.SemiOblivious
	if variant == "o" {
		v = chase.Oblivious
	}
	res, err := critical.OracleContext(ctx, rs, v, oracleBudget)
	if err != nil {
		return "", err
	}
	if res.Outcome == chase.Terminated {
		return "terminating", nil
	}
	return "non-terminating", nil
}

// referenceAnswer is the verdict a decide request for rs must return.
func referenceAnswer(ctx context.Context, expect answer, rs *logic.RuleSet, variant string) (string, error) {
	switch expect {
	case answerTerm:
		return "terminating", nil
	case answerNonTerm:
		return "non-terminating", nil
	}
	return oracleAnswer(ctx, rs, variant)
}

// factDigest is an order-independent digest of a set of rendered facts.
type factDigest struct {
	n        int
	sum, mix uint64
}

func (d *factDigest) add(fact string) { d.addHash(hashString(fact)) }

func (d *factDigest) addHash(x uint64) {
	d.n++
	d.sum += x
	d.mix += x * (x | 1) * 0x9e3779b97f4a7c15
}

// minus is the digest of a set with a subset of digest e removed.
func (d factDigest) minus(e factDigest) factDigest {
	return factDigest{n: d.n - e.n, sum: d.sum - e.sum, mix: d.mix - e.mix}
}

// digestOf is the digest of the distinct facts among atoms.
func digestOf(atoms []logic.Atom) factDigest {
	var d factDigest
	seen := map[string]bool{}
	for _, a := range atoms {
		if f := a.String(); !seen[f] {
			seen[f] = true
			d.add(f)
		}
	}
	return d
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// restrictedResult derives the restricted-chase result of db through
// the library, asked exactly as the service asks it, checks that it
// contains the database and satisfies every rule, and returns its
// digest. The sequential engine is deterministic, so a served result
// must have the same digest.
func restrictedResult(ctx context.Context, tb *tbox, db []logic.Atom, dbText string) (factDigest, error) {
	var dg factDigest
	rs, err := chaseterm.ParseRules(tb.text)
	if err != nil {
		return dg, err
	}
	cdb, err := chaseterm.ParseDatabase(dbText)
	if err != nil {
		return dg, err
	}
	rep, err := chaseterm.Analyzer{}.Analyze(ctx, chaseterm.NewRequest(chaseterm.AnalyzeChase, rs,
		chaseterm.WithVariant(chaseterm.Restricted), chaseterm.WithChaseBudgets(chaseterm.ChaseOptions{}),
		chaseterm.WithDatabase(cdb), chaseterm.WithFacts()))
	if err != nil {
		return dg, err
	}
	m := newModel()
	for _, f := range rep.Chase.Facts() {
		dg.add(f)
		if err := m.add(f); err != nil {
			return dg, err
		}
	}
	return dg, m.checkModel(tb.rules, db)
}

// referenceSO runs a naive semi-oblivious chase of single-body-atom
// rules over db and returns the digest of the result, database
// included. Existential variables become Skolem terms named the way the
// engine renders them, f<rule>_<var>(frontier...), so the result is
// canonical and comparable fact by fact. It refuses rules with more
// than one body atom and stops at maxFacts.
func referenceSO(rs *logic.RuleSet, db []logic.Atom, maxFacts int) (factDigest, error) {
	var dg factDigest
	type fact struct {
		pred string
		args []string
	}
	seen := map[string]bool{}
	var queue []fact
	add := func(pred string, args []string) {
		key := pred + "(" + strings.Join(args, ",") + ")"
		if seen[key] {
			return
		}
		seen[key] = true
		dg.add(key)
		queue = append(queue, fact{pred, args})
	}
	byPred := map[string][]int{}
	for ri, r := range rs.Rules {
		if len(r.Body) != 1 {
			return dg, fmt.Errorf("reference chase: rule %d has %d body atoms", ri, len(r.Body))
		}
		byPred[r.Body[0].Pred] = append(byPred[r.Body[0].Pred], ri)
	}
	for _, a := range db {
		args := make([]string, len(a.Args))
		for i, t := range a.Args {
			args[i] = t.String()
		}
		add(a.Pred, args)
	}
	for len(queue) > 0 {
		if len(seen) > maxFacts {
			return dg, fmt.Errorf("reference chase: more than %d facts", maxFacts)
		}
		f := queue[0]
		queue = queue[1:]
		for _, ri := range byPred[f.pred] {
			r := rs.Rules[ri]
			bind, ok := matchAtom(r.Body[0], f.args, nil)
			if !ok {
				continue
			}
			fr := r.Frontier()
			frArgs := make([]string, len(fr))
			for i, v := range fr {
				frArgs[i] = bind[v]
			}
			for _, z := range r.Existentials() {
				bind[z] = fmt.Sprintf("f%d_%s(%s)", ri, z, strings.Join(frArgs, ","))
			}
			for _, h := range r.Head {
				args := make([]string, len(h.Args))
				for i, t := range h.Args {
					if v, isVar := t.(logic.Variable); isVar {
						args[i] = bind[v]
					} else {
						args[i] = t.String()
					}
				}
				add(h.Pred, args)
			}
		}
	}
	return dg, nil
}

// matchAtom extends bind so that atom maps onto the ground tuple args.
func matchAtom(atom logic.Atom, args []string, bind map[logic.Variable]string) (map[logic.Variable]string, bool) {
	if len(atom.Args) != len(args) {
		return nil, false
	}
	out := make(map[logic.Variable]string, len(args)+2)
	for k, v := range bind {
		out[k] = v
	}
	for i, t := range atom.Args {
		if v, isVar := t.(logic.Variable); isVar {
			if b, bound := out[v]; bound && b != args[i] {
				return nil, false
			}
			out[v] = args[i]
		} else if t.String() != args[i] {
			return nil, false
		}
	}
	return out, true
}

// model is a set of ground facts indexed for the restricted-result
// check.
type model struct {
	facts  map[string]bool
	byPred map[string][][]string
	// index maps pred/position/value to the tuples holding value there.
	index map[string][]map[string][]int
}

func newModel() *model {
	return &model{facts: map[string]bool{}, byPred: map[string][][]string{}, index: map[string][]map[string][]int{}}
}

// add inserts a rendered fact.
func (m *model) add(fact string) error {
	if m.facts[fact] {
		return nil
	}
	open := strings.IndexByte(fact, '(')
	if open <= 0 || !strings.HasSuffix(fact, ")") {
		return fmt.Errorf("unparsable fact %q", fact)
	}
	m.facts[fact] = true
	pred := fact[:open]
	args := strings.Split(fact[open+1:len(fact)-1], ",")
	idx := m.index[pred]
	if idx == nil {
		idx = make([]map[string][]int, len(args))
		for i := range idx {
			idx[i] = map[string][]int{}
		}
		m.index[pred] = idx
	}
	if len(idx) != len(args) {
		return fmt.Errorf("fact %q: arity differs from earlier %s facts", fact, pred)
	}
	n := len(m.byPred[pred])
	for i, a := range args {
		idx[i][a] = append(idx[i][a], n)
	}
	m.byPred[pred] = append(m.byPred[pred], args)
	return nil
}

// checkModel verifies that the facts contain the database and satisfy
// every rule: each body match extends to a match of the whole head.
func (m *model) checkModel(rs *logic.RuleSet, db []logic.Atom) error {
	for _, a := range db {
		if !m.facts[a.String()] {
			return fmt.Errorf("database fact %s missing from the result", a)
		}
	}
	for ri, r := range rs.Rules {
		if len(r.Body) != 1 {
			return fmt.Errorf("model check: rule %d has %d body atoms", ri, len(r.Body))
		}
		for _, args := range m.byPred[r.Body[0].Pred] {
			bind, ok := matchAtom(r.Body[0], args, nil)
			if !ok {
				continue
			}
			if !m.satisfies(r.Head, bind) {
				return fmt.Errorf("rule %d (%s) violated at %s(%s)", ri, r, r.Body[0].Pred, strings.Join(args, ","))
			}
		}
	}
	return nil
}

// satisfies reports whether bind extends to a match of every head atom,
// scanning only the tuples that agree on the atom's first bound
// position.
func (m *model) satisfies(head []logic.Atom, bind map[logic.Variable]string) bool {
	if len(head) == 0 {
		return true
	}
	h := head[0]
	tuples := m.byPred[h.Pred]
	try := func(args []string) bool {
		ext, ok := matchAtom(h, args, bind)
		return ok && m.satisfies(head[1:], ext)
	}
	for pos, t := range h.Args {
		var val string
		var bound bool
		if v, isVar := t.(logic.Variable); isVar {
			val, bound = bind[v]
		} else {
			val, bound = t.String(), true
		}
		if !bound {
			continue
		}
		idx := m.index[h.Pred]
		if len(idx) != len(h.Args) {
			return false
		}
		for _, n := range idx[pos][val] {
			if try(tuples[n]) {
				return true
			}
		}
		return false
	}
	for _, args := range tuples {
		if try(args) {
			return true
		}
	}
	return false
}
