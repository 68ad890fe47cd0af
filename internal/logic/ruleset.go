package logic

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// RuleSet is a finite set of TGDs over a common schema.
//
// What the rules say about their schema (the predicates, their
// positions, the class, the constants, the arity-consistency check) is
// worked out in one pass over the atoms on the first call that needs it,
// and kept. Rules, and the rules themselves, must not change after that
// first call; from then on the set is read-only, and a parsed set may be
// shared between goroutines.
type RuleSet struct {
	Rules []*TGD

	once sync.Once
	sum  summary
}

// summary is the memo behind the schema accessors of a RuleSet.
type summary struct {
	// schema holds the predicates sorted by name, then arity. Argument i
	// of schema[k] has position id base[k]+i; base[len(schema)] is the
	// position count.
	schema []Predicate
	base   []int
	// atomBase holds the position base of every atom, rule by rule, body
	// atoms before head atoms; rule i's atoms start at ruleAtoms[i].
	atomBase  []int32
	ruleAtoms []int32
	maxArity  int
	class     Class
	consts    []Constant // sorted, distinct
	err       error      // what Validate reports
}

// NewRuleSet builds a rule set; it does not validate (call Validate).
func NewRuleSet(rules ...*TGD) *RuleSet { return &RuleSet{Rules: rules} }

func (rs *RuleSet) summary() *summary {
	rs.once.Do(func() { rs.sum.build(rs.Rules) })
	return &rs.sum
}

// build fills the summary in one pass over the atoms of rules.
func (s *summary) build(rules []*TGD) {
	natoms := 0
	for _, r := range rules {
		natoms += len(r.Body) + len(r.Head)
	}
	// The pass over the atoms: every atom's predicate as an index into
	// preds, in order of first occurrence; the arity check runs on the
	// same lookups.
	s.atomBase = make([]int32, 0, natoms)
	s.ruleAtoms = make([]int32, len(rules)+1)
	var preds []Predicate
	byName := make(map[string]int32, len(rules))
	add := func(a Atom, section string, rule int) {
		k, ok := byName[a.Pred]
		if !ok {
			k = int32(len(preds))
			byName[a.Pred] = k
			preds = append(preds, a.Predicate())
		} else if have := preds[k].Arity; have != len(a.Args) {
			// Invalid set: the name also stands for another predicate.
			if s.err == nil {
				s.err = fmt.Errorf("logic: predicate %s used with arities %d and %d (%s of rule %d)",
					a.Pred, have, len(a.Args), section, rule)
			}
			if k = int32(slices.Index(preds, a.Predicate())); k < 0 {
				k = int32(len(preds))
				preds = append(preds, a.Predicate())
			}
		}
		s.atomBase = append(s.atomBase, k)
		for _, t := range a.Args {
			if c, ok := t.(Constant); ok {
				s.consts = append(s.consts, c)
			}
		}
	}
	for i, r := range rules {
		s.ruleAtoms[i] = int32(len(s.atomBase))
		if s.err == nil {
			s.err = r.Validate()
		}
		s.class = max(s.class, r.class())
		for _, a := range r.Body {
			add(a, "body", i)
		}
		for _, a := range r.Head {
			add(a, "head", i)
		}
	}
	s.ruleAtoms[len(rules)] = int32(len(s.atomBase))

	// Sort the schema and turn predicate indexes into position bases.
	order := make([]int32, len(preds))
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(strings.Compare(preds[a].Name, preds[b].Name), cmp.Compare(preds[a].Arity, preds[b].Arity))
	})
	s.schema = make([]Predicate, len(preds))
	s.base = make([]int, len(preds)+1)
	baseOf := make([]int32, len(preds)) // by first-occurrence index
	for k, j := range order {
		p := preds[j]
		s.schema[k] = p
		baseOf[j] = int32(s.base[k])
		s.base[k+1] = s.base[k] + p.Arity
		s.maxArity = max(s.maxArity, p.Arity)
	}
	for i, k := range s.atomBase {
		s.atomBase[i] = baseOf[k]
	}
	slices.Sort(s.consts)
	s.consts = slices.Clip(slices.Compact(s.consts))
}

// Validate checks every rule and the arity-consistency of the schema: a
// predicate name must be used with a single arity across the whole set.
// It reports the first fault in rule order.
func (rs *RuleSet) Validate() error { return rs.summary().err }

// Schema returns the predicates occurring in the rule set, sorted by name
// (then arity). The returned slice must not be modified.
func (rs *RuleSet) Schema() []Predicate { return rs.summary().schema }

// Arity returns the arity of the schema predicate named name, and whether
// there is one. On a set that fails Validate it reports the least arity.
func (rs *RuleSet) Arity(name string) (int, bool) {
	schema := rs.summary().schema
	k, ok := slices.BinarySearchFunc(schema, name, func(p Predicate, name string) int {
		return strings.Compare(p.Name, name)
	})
	if !ok {
		return 0, false
	}
	return schema[k].Arity, true
}

// NumPositions returns the number of positions of the schema. Position
// ids run from 0 to NumPositions()-1, predicate by predicate in schema
// order.
func (rs *RuleSet) NumPositions() int {
	s := rs.summary()
	return s.base[len(s.schema)]
}

// AtomBases returns the position id of argument 0 of each atom of rule i,
// body atoms first, then head atoms: argument j of the atom sits at
// position id AtomBases(i)[k]+j. The returned slice must not be modified.
func (rs *RuleSet) AtomBases(i int) []int32 {
	s := rs.summary()
	return s.atomBase[s.ruleAtoms[i]:s.ruleAtoms[i+1]]
}

// Position returns the position with the given id.
func (rs *RuleSet) Position(id int) Position {
	s := rs.summary()
	k := sort.SearchInts(s.base, id+1) - 1
	return Position{Pred: s.schema[k], Index: id - s.base[k]}
}

// Constants returns the distinct constants occurring in the rules, sorted.
// The returned slice must not be modified.
func (rs *RuleSet) Constants() []Constant { return rs.summary().consts }

// MaxArity returns the maximum predicate arity of the schema (0 for empty).
func (rs *RuleSet) MaxArity() int { return rs.summary().maxArity }

// Classify returns the most specific syntactic class containing every rule
// of the set.
func (rs *RuleSet) Classify() Class { return rs.summary().class }

func (rs *RuleSet) String() string {
	var b strings.Builder
	for _, r := range rs.Rules {
		b.WriteString(r.String())
		b.WriteString(".\n")
	}
	return b.String()
}
