// Package instance implements ground instances: interned ground terms
// (constants, labelled nulls, Skolem terms), fact storage with a posting
// index, and homomorphism enumeration — the machinery the chase engine
// in package chase is built on.
//
// Terms and facts are interned to dense integer ids so that equality is an
// integer comparison and facts can be deduplicated in O(1); this is what
// makes the semi-oblivious (Skolem) chase's "two homomorphisms agreeing on
// the frontier are indistinguishable" concrete: equal frontier tuples yield
// the identical Skolem term ids and therefore the identical facts.
//
// Facts, Skolem terms and the chase engine's triggers that can repeat
// live in TupleSets: dense ids over one flat arena, deduplicated through
// an open-addressed hash table. The arenas grow by doubling.
//
// The (predicate, position, term) posting index is demand-driven: a
// column — a (predicate, position) pair — keeps posting chains only once
// a compiled pattern's plans probe it (Instance.IndexColumn), and the
// matcher reads any other column's facts from the predicate's extent or
// another indexed column. An instance whose patterns probe no column,
// such as one chased by rules with one body atom and no constants,
// keeps no index at all.
//
// # Concurrency: the single-writer contract
//
// Instances, term tables and tuple sets are single-writer data structures:
// all mutation (adding facts, interning terms or predicates, inserting
// tuples) must happen from one goroutine at a time, with no concurrent
// readers. Once frozen — the writer is done and the hand-off is
// synchronized — any number of goroutines may read concurrently: Contains,
// Lookup, ByPred, ByPosTerm, rendering, and homomorphism enumeration with
// a per-goroutine MatchScratch over patterns whose plans were compiled
// before the hand-off (CompileBody compiles them eagerly). Compiling a
// pattern is itself a write: it interns predicates and constants and
// may index columns. A reader that compiles after the hand-off — a query
// over a shared chase result — stays read-only only when every column is
// indexed first (IndexAll) and the pattern names interned predicates and
// constants only.
//
// The contract is documented, not checked: nothing stops a second writer
// or a reader racing the writer, and `go test -race` is what catches one.
// The chase engine owns its instance exclusively while it runs, and the
// service layer only shares chase results after the run completes.
package instance

import "strconv"

// TermID is a dense identifier of an interned ground term.
type TermID int32

// NoTerm is the sentinel "unbound" term id used in partial bindings.
const NoTerm TermID = -1

// TermKind distinguishes ground term species.
type TermKind uint8

const (
	// KindConst is an uninterpreted constant.
	KindConst TermKind = iota
	// KindNull is a labelled null invented by the oblivious or restricted
	// chase (one fresh null per trigger application and existential
	// variable).
	KindNull
	// KindSkolem is a Skolem term f_{σ,z}(t̄) invented by the
	// semi-oblivious chase; interned on (function, arguments) so that equal
	// frontier tuples yield the same term.
	KindSkolem
)

func (k TermKind) String() string {
	switch k {
	case KindConst:
		return "const"
	case KindNull:
		return "null"
	default:
		return "skolem"
	}
}

// SkolemFnID is a dense identifier of an interned Skolem function symbol.
type SkolemFnID int32

// NoSkolemFn is returned by SkolemFnOf for non-Skolem terms.
const NoSkolemFn SkolemFnID = -1

// termInfo holds no pointer, so the GC never scans the infos array.
type termInfo struct {
	kind TermKind
	// aux is the index in TermTable.names (constants), the null ordinal
	// (nulls) or the member id in TermTable.sk (Skolem terms).
	aux   int32
	depth int32 // Skolem nesting depth; "birth depth" for nulls; 0 for constants
}

// TermTable interns ground terms. The zero value is not usable; call
// NewTermTable. Like Instance, a TermTable is single-writer: interning
// must be serialized, concurrent reads of a frozen table are safe.
type TermTable struct {
	infos  []termInfo
	names  []string // constant names, indexed by termInfo.aux
	consts map[string]TermID
	nulls  int

	fnNames []string
	fnIDs   map[string]SkolemFnID
	// sk interns the Skolem terms: tag = function symbol, tuple = the
	// argument terms. skTerm maps its member ids back to TermIDs.
	sk     TupleSet
	skTerm []TermID
}

// NewTermTable creates an empty term table.
func NewTermTable() *TermTable {
	return &TermTable{
		consts: make(map[string]TermID),
		fnIDs:  make(map[string]SkolemFnID),
	}
}

// Len returns the number of interned terms.
func (t *TermTable) Len() int { return len(t.infos) }

// Const interns a constant by name.
func (t *TermTable) Const(name string) TermID {
	if id, ok := t.consts[name]; ok {
		return id
	}
	id := TermID(len(t.infos))
	reserve(&t.infos, 1)
	t.infos = append(t.infos, termInfo{kind: KindConst, aux: int32(len(t.names))})
	t.names = append(t.names, name)
	t.consts[name] = id
	return id
}

// LookupConst returns the id of a constant if already interned.
func (t *TermTable) LookupConst(name string) (TermID, bool) {
	id, ok := t.consts[name]
	return id, ok
}

// FreshNull invents a labelled null that is distinct from every existing
// term. depth records how deep in the chase derivation the null was born
// (max birth depth of the trigger's image terms, plus one); it is used for
// run statistics only.
func (t *TermTable) FreshNull(depth int32) TermID {
	id := TermID(len(t.infos))
	t.nulls++
	// The "z<n>" display name is rendered lazily by Name/String so that
	// inventing a null costs no formatting allocation on the chase path.
	reserve(&t.infos, 1)
	t.infos = append(t.infos, termInfo{kind: KindNull, aux: int32(t.nulls), depth: depth})
	return id
}

// SkolemFn interns a Skolem function symbol by name. The chase engine
// resolves its per-(rule, existential) function names to ids once at
// compile time so that Skolem interning is integer-keyed.
func (t *TermTable) SkolemFn(name string) SkolemFnID {
	if id, ok := t.fnIDs[name]; ok {
		return id
	}
	id := SkolemFnID(len(t.fnNames))
	t.fnNames = append(t.fnNames, name)
	t.fnIDs[name] = id
	return id
}

// SkolemFnName returns the name of an interned Skolem function.
func (t *TermTable) SkolemFnName(fn SkolemFnID) string { return t.fnNames[fn] }

// SkolemFnBytes is SkolemFn for a name assembled in a byte buffer: the
// lookup allocates nothing on a hit (the string conversion materializes
// only on a miss).
func (t *TermTable) SkolemFnBytes(name []byte) SkolemFnID {
	if id, ok := t.fnIDs[string(name)]; ok {
		return id
	}
	return t.SkolemFn(string(name))
}

// Skolem interns the Skolem term fn(args...). Function symbols are unique
// per (rule, existential variable) pair; the chase engine guarantees this.
// Re-interning an existing term performs no allocation.
//
//chaselint:hotpath
func (t *TermTable) Skolem(fn SkolemFnID, args []TermID) TermID {
	m, added := t.sk.Insert(int32(fn), args)
	if !added {
		return t.skTerm[m]
	}
	depth := int32(0)
	for _, a := range args {
		if d := t.infos[a].depth; d > depth {
			depth = d
		}
	}
	id := TermID(len(t.infos))
	reserve(&t.infos, 1)
	t.infos = append(t.infos, termInfo{kind: KindSkolem, aux: m, depth: depth + 1})
	reserve(&t.skTerm, 1)
	t.skTerm = append(t.skTerm, id)
	return id
}

// Kind returns the kind of a term.
func (t *TermTable) Kind(id TermID) TermKind { return t.infos[id].kind }

// Depth returns the Skolem nesting depth (or null birth depth) of a term;
// constants have depth 0.
func (t *TermTable) Depth(id TermID) int32 { return t.infos[id].depth }

// IsInvented reports whether the term is a null or Skolem term (i.e. not a
// constant).
func (t *TermTable) IsInvented(id TermID) bool { return t.infos[id].kind != KindConst }

// SkolemArgs returns the argument terms of a Skolem term (nil otherwise)
// as a read-only view, capped at the term's arity.
func (t *TermTable) SkolemArgs(id TermID) []TermID {
	if t.infos[id].kind != KindSkolem {
		return nil
	}
	return t.sk.Tuple(t.infos[id].aux)
}

// SkolemFnOf returns the function symbol of a Skolem term, or NoSkolemFn
// for constants and nulls.
func (t *TermTable) SkolemFnOf(id TermID) SkolemFnID {
	if t.infos[id].kind != KindSkolem {
		return NoSkolemFn
	}
	return SkolemFnID(t.sk.Tag(t.infos[id].aux))
}

// Name returns the constant name, the Skolem function name, or the "z<n>"
// display name of a null.
func (t *TermTable) Name(id TermID) string {
	in := &t.infos[id]
	switch in.kind {
	case KindNull:
		return string(t.AppendTerm(nil, id))
	case KindSkolem:
		return t.fnNames[t.sk.Tag(in.aux)]
	default:
		return t.names[in.aux]
	}
}

// String renders the term for diagnostics; see AppendTerm.
func (t *TermTable) String(id TermID) string {
	if in := &t.infos[id]; in.kind == KindConst {
		return t.names[in.aux]
	}
	return string(t.AppendTerm(nil, id))
}

// AppendTerm appends the term's surface syntax to dst and returns the
// extended buffer: a constant's name, a null as z<n>, a Skolem term as
// f(args) with its arguments rendered recursively.
func (t *TermTable) AppendTerm(dst []byte, id TermID) []byte {
	in := &t.infos[id]
	switch in.kind {
	case KindConst:
		return append(dst, t.names[in.aux]...)
	case KindNull:
		return strconv.AppendInt(append(dst, 'z'), int64(in.aux), 10)
	default:
		dst = append(dst, t.fnNames[t.sk.Tag(in.aux)]...)
		dst = append(dst, '(')
		for i, a := range t.sk.Tuple(in.aux) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = t.AppendTerm(dst, a)
		}
		return append(dst, ')')
	}
}
