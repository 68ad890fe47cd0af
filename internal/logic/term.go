// Package logic provides the symbolic vocabulary of the existential-rule
// (TGD) framework studied in "Chase Termination for Guarded Existential
// Rules" (Calautti, Gottlob, Pieris; PODS 2015): terms, atoms, conjunctions,
// tuple-generating dependencies, schemas, and the rule-class recognizers for
// the classes SL (simple linear), L (linear) and G (guarded) around which the
// paper's results are organized.
//
// The package is purely syntactic: ground instances, nulls and Skolem terms
// live in package instance, and the chase procedures in package chase.
package logic

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// Term is a symbolic term occurring in a rule or a database fact: either a
// Constant or a Variable. Ground instance-level terms (labeled nulls, Skolem
// terms) are represented separately by the instance package; rules never
// contain them.
type Term interface {
	fmt.Stringer
	isTerm()
}

// Constant is an uninterpreted constant symbol, e.g. bob or 0.
type Constant string

// Variable is a first-order variable, e.g. X. By convention the parser maps
// identifiers starting with an upper-case letter (or underscore) to
// variables, but the type itself imposes no lexical restriction.
type Variable string

func (Constant) isTerm() {}
func (Variable) isTerm() {}

// String renders the constant in parser-compatible form: names that would
// not lex as constants (empty, containing non-identifier characters, or
// starting like a variable) are single-quoted.
func (c Constant) String() string {
	if constNeedsQuote(string(c)) {
		return "'" + string(c) + "'"
	}
	return string(c)
}

func (v Variable) String() string { return string(v) }

// Append appends the constant's String form to dst without allocating a
// string for it.
func (c Constant) Append(dst []byte) []byte {
	if constNeedsQuote(string(c)) {
		return append(append(append(dst, '\''), c...), '\'')
	}
	return append(dst, c...)
}

func constNeedsQuote(s string) bool {
	if s == "" {
		return true
	}
	for i, r := range s {
		isIdent := r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
		if !isIdent {
			return true
		}
		if i == 0 && (r == '_' || unicode.IsUpper(r)) {
			return true
		}
	}
	return false
}

// Predicate identifies a relation symbol together with its arity. Two
// predicates with the same name but different arities are distinct symbols.
type Predicate struct {
	Name  string
	Arity int
}

func (p Predicate) String() string { return p.Name + "/" + strconv.Itoa(p.Arity) }

// Position identifies an argument position of a predicate, written p[i] in
// the dependency-graph literature (Fagin et al.). Index is zero-based.
type Position struct {
	Pred  Predicate
	Index int
}

func (pos Position) String() string { return fmt.Sprintf("%s[%d]", pos.Pred.Name, pos.Index+1) }

// Atom is a relational atom p(t1, ..., tk). The arity of the predicate is
// len(Args) by construction.
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom from a predicate name and terms.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Predicate returns the predicate symbol (name and arity) of the atom.
func (a Atom) Predicate() Predicate { return Predicate{Name: a.Pred, Arity: len(a.Args)} }

// Variables appends the distinct variables of the atom, in order of first
// occurrence, to dst and returns the extended slice.
func (a Atom) Variables(dst []Variable) []Variable {
	for _, t := range a.Args {
		if v, ok := t.(Variable); ok && !containsVar(dst, v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// Constants appends the distinct constants of the atom, in order of first
// occurrence, to dst and returns the extended slice.
func (a Atom) Constants(dst []Constant) []Constant {
	for _, t := range a.Args {
		if c, ok := t.(Constant); ok && !containsConst(dst, c) {
			dst = append(dst, c)
		}
	}
	return dst
}

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if _, ok := t.(Variable); ok {
			return false
		}
	}
	return true
}

// HasRepeatedVariable reports whether some variable occurs at two or more
// argument positions of the atom. Simple-linear TGDs forbid this in bodies.
func (a Atom) HasRepeatedVariable() bool {
	return a.distinctVariables() < a.variableCount()
}

// variableCount counts the variable arguments of the atom.
func (a Atom) variableCount() int {
	n := 0
	for _, t := range a.Args {
		if _, ok := t.(Variable); ok {
			n++
		}
	}
	return n
}

// distinctVariables counts the distinct variables of the atom without
// allocating: an argument counts unless an earlier one equals it.
func (a Atom) distinctVariables() int {
	n := 0
	for i, t := range a.Args {
		v, ok := t.(Variable)
		if !ok {
			continue
		}
		first := true
		for _, u := range a.Args[:i] {
			if w, ok := u.(Variable); ok && w == v {
				first = false
				break
			}
		}
		if first {
			n++
		}
	}
	return n
}

// Rename returns a copy of the atom with every variable replaced according
// to ren; variables absent from ren are kept.
func (a Atom) Rename(ren map[Variable]Variable) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		if v, ok := t.(Variable); ok {
			if w, ok := ren[v]; ok {
				args[i] = w
				continue
			}
		}
		args[i] = t
	}
	return Atom{Pred: a.Pred, Args: args}
}

// Equal reports structural equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// AtomsString renders a conjunction of atoms, comma-separated.
func AtomsString(atoms []Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

func containsVar(vs []Variable, v Variable) bool {
	for _, w := range vs {
		if w == v {
			return true
		}
	}
	return false
}

func containsConst(cs []Constant, c Constant) bool {
	for _, d := range cs {
		if d == c {
			return true
		}
	}
	return false
}

// SortVariables sorts a slice of variables lexicographically, in place.
func SortVariables(vs []Variable) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}
