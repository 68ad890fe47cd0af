package logic

import (
	"fmt"
	"sync"
)

// TGD is a tuple-generating dependency (existential rule)
//
//	∀X ∀Y ( φ(X,Y) → ∃Z ψ(Y,Z) )
//
// written Body -> Head. Every variable occurring in the body is universally
// quantified; every head variable that does not occur in the body is
// existentially quantified. The frontier is the set of universally
// quantified variables that occur in the head (the Y above).
type TGD struct {
	Body []Atom
	Head []Atom

	// Label is an optional human-readable name used in diagnostics.
	Label string

	// Memoized analyses, computed once on first use (the zero TGD is
	// usable). Body and Head must not change after the first call; from
	// then on the TGD may be shared between goroutines.
	once                                      sync.Once
	bodyVars, headVars, frontier, existential []Variable
}

// NewTGD builds a TGD from body and head conjunctions.
func NewTGD(body, head []Atom) *TGD { return &TGD{Body: body, Head: head} }

func (t *TGD) analyze() { t.once.Do(t.computeVariables) }

// computeVariables fills the four variable lists from one backing array.
// Each list is capped at its length, so a caller appending to one cannot
// write into the next.
func (t *TGD) computeVariables() {
	nb, nh := 0, 0
	for _, a := range t.Body {
		nb += len(a.Args)
	}
	for _, a := range t.Head {
		nh += len(a.Args)
	}
	buf := make([]Variable, 0, nb+2*nh)
	for _, a := range t.Body {
		buf = a.Variables(buf)
	}
	t.bodyVars = buf[:len(buf):len(buf)]
	buf = buf[len(buf):]
	for _, a := range t.Head {
		buf = a.Variables(buf)
	}
	t.headVars = buf[:len(buf):len(buf)]
	buf = buf[len(buf):]
	for _, v := range t.headVars {
		if containsVar(t.bodyVars, v) {
			buf = append(buf, v)
		}
	}
	t.frontier = buf[:len(buf):len(buf)]
	buf = buf[len(buf):]
	for _, v := range t.headVars {
		if !containsVar(t.bodyVars, v) {
			buf = append(buf, v)
		}
	}
	t.existential = buf[:len(buf):len(buf)]
}

// BodyVariables returns the distinct variables of the body in order of first
// occurrence. The returned slice must not be modified.
func (t *TGD) BodyVariables() []Variable { t.analyze(); return t.bodyVars }

// HeadVariables returns the distinct variables of the head in order of first
// occurrence. The returned slice must not be modified.
func (t *TGD) HeadVariables() []Variable { t.analyze(); return t.headVars }

// Frontier returns the frontier variables: universally quantified variables
// occurring in the head. Two homomorphisms agreeing on the frontier are
// indistinguishable for the semi-oblivious chase.
func (t *TGD) Frontier() []Variable { t.analyze(); return t.frontier }

// Existentials returns the existentially quantified variables of the head.
func (t *TGD) Existentials() []Variable { t.analyze(); return t.existential }

// IsFull reports whether the TGD has no existentially quantified variables
// (a "full" TGD, i.e. a Datalog rule).
func (t *TGD) IsFull() bool { t.analyze(); return len(t.existential) == 0 }

// IsLinear reports whether the TGD has exactly one body atom.
func (t *TGD) IsLinear() bool { return len(t.Body) == 1 }

// IsSimpleLinear reports whether the TGD is linear and no variable is
// repeated in its body atom.
func (t *TGD) IsSimpleLinear() bool {
	return t.IsLinear() && !t.Body[0].HasRepeatedVariable()
}

// GuardIndex returns the index of the first body atom that contains every
// universally quantified variable of the TGD (the guard), or -1 if no body
// atom does.
func (t *TGD) GuardIndex() int {
	n := len(t.BodyVariables())
	for i, a := range t.Body {
		// Every variable of a body atom is a body variable, so the atom
		// holds them all iff it has as many distinct ones.
		if a.distinctVariables() == n {
			return i
		}
	}
	return -1
}

// IsGuarded reports whether some body atom guards all universally
// quantified variables.
func (t *TGD) IsGuarded() bool { return t.GuardIndex() >= 0 }

// class returns the most specific class containing the TGD.
func (t *TGD) class() Class {
	switch {
	case t.IsSimpleLinear():
		return ClassSimpleLinear
	case t.IsLinear():
		return ClassLinear
	case t.IsGuarded():
		return ClassGuarded
	default:
		return ClassGeneral
	}
}

// Validate checks structural sanity: non-empty body and head, and arity
// consistency is checked at the RuleSet level.
func (t *TGD) Validate() error {
	if len(t.Body) == 0 {
		return fmt.Errorf("logic: TGD %s has an empty body", t.name())
	}
	if len(t.Head) == 0 {
		return fmt.Errorf("logic: TGD %s has an empty head", t.name())
	}
	return nil
}

func (t *TGD) name() string {
	if t.Label != "" {
		return t.Label
	}
	return t.String()
}

// Rename returns a copy of the TGD with variables substituted according to
// ren. Memoized analyses are recomputed on demand in the copy.
func (t *TGD) Rename(ren map[Variable]Variable) *TGD {
	body := make([]Atom, len(t.Body))
	for i, a := range t.Body {
		body[i] = a.Rename(ren)
	}
	head := make([]Atom, len(t.Head))
	for i, a := range t.Head {
		head[i] = a.Rename(ren)
	}
	return &TGD{Body: body, Head: head, Label: t.Label}
}

func (t *TGD) String() string {
	return AtomsString(t.Body) + " -> " + AtomsString(t.Head)
}

// Class is a syntactic class of TGD sets, ordered by expressiveness:
// SL ⊆ L ⊆ G ⊆ General.
type Class int

const (
	// ClassSimpleLinear: one body atom, no repeated body variables.
	ClassSimpleLinear Class = iota
	// ClassLinear: one body atom.
	ClassLinear
	// ClassGuarded: some body atom contains all universally quantified
	// variables.
	ClassGuarded
	// ClassGeneral: arbitrary TGDs.
	ClassGeneral
)

func (c Class) String() string {
	switch c {
	case ClassSimpleLinear:
		return "simple-linear"
	case ClassLinear:
		return "linear"
	case ClassGuarded:
		return "guarded"
	default:
		return "general"
	}
}

// Includes reports whether class c contains class d (e.g. guarded includes
// linear and simple-linear).
func (c Class) Includes(d Class) bool { return d <= c }
