package instance

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"

	"chaseterm/internal/logic"
)

// PredID is a dense identifier of an interned predicate.
type PredID int32

// FactID is a dense identifier of a stored fact. Facts are never removed,
// so a FactID is stable for the lifetime of the instance.
type FactID int32

// Fact is a ground atom over interned term ids.
type Fact struct {
	Pred PredID
	Args []TermID
}

// postEntry is one posting chain of the (pred, pos, term) index: the key
// plus the first and last fact of the chain and its length. Facts are
// linked through Instance.next in insertion order, so enumeration visits
// facts exactly as posting-list slices would — without allocating a list
// per key. Entries live inline in an open-addressed, pointer-free table
// (count == 0 marks an empty slot), so index maintenance costs neither a
// Go map operation nor GC scan work. Only indexed columns keep chains
// (see Instance.IndexColumn).
type postEntry struct {
	pred       PredID
	pos        int32
	term       TermID
	head, tail FactID
	count      int32
}

func postHash(p PredID, pos int32, term TermID) uint64 {
	h := hashMix(hashSeed, uint64(uint32(p))|uint64(uint32(pos))<<32)
	return hashFinish(hashMix(h, uint64(uint32(term))))
}

// postTable is the open-addressed (pred, pos, term) index.
type postTable struct {
	entries []postEntry
	n       int
}

// lookup returns the entry for the key, or the empty slot it belongs in.
func (pt *postTable) lookup(p PredID, pos int32, term TermID) *postEntry {
	mask := uint64(len(pt.entries) - 1)
	i := postHash(p, pos, term) & mask
	for {
		e := &pt.entries[i]
		if e.count == 0 || (e.pred == p && e.pos == pos && e.term == term) {
			return e
		}
		i = (i + 1) & mask
	}
}

// reserve sizes the table, by doubling from 64 entries, so that n more
// entries keep its load at most 3/4.
func (pt *postTable) reserve(n int) {
	size := max(len(pt.entries), 64)
	for (pt.n+n)*4 > size*3 {
		size *= 2
	}
	if size > len(pt.entries) {
		pt.resize(size)
	}
}

// resize re-slots the entries into a table of size entries.
func (pt *postTable) resize(size int) {
	old := pt.entries
	pt.entries = make([]postEntry, size)
	mask := uint64(size - 1)
	for i := range old {
		e := &old[i]
		if e.count == 0 {
			continue
		}
		j := postHash(e.pred, e.pos, e.term) & mask
		for pt.entries[j].count != 0 {
			j = (j + 1) & mask
		}
		pt.entries[j] = *e
	}
}

// Instance is a set of facts (a database instance, possibly containing
// invented nulls or Skolem terms) with per-predicate extents and a
// (predicate, position, term) hash index used by the homomorphism matcher.
// The index is kept per column — a (predicate, position) pair — and only
// for the columns compiled patterns probe (see IndexColumn).
//
// Concurrency: an Instance is single-writer. Mutating methods (Add, Pred,
// AddLogicAtom, IndexColumn, PatternSet.Compile, CompileHead and
// CompileBody, and anything that interns terms) must be serialized by the
// caller; once an instance is frozen — no more writers — any number of
// goroutines may read it concurrently (Contains, ByPred, ByPosTerm,
// FindHoms and friends with per-goroutine MatchScratch, FactString, ...).
type Instance struct {
	Terms *TermTable

	predByName map[string]PredID
	predNames  []string
	preds      []predInfo
	// indexed holds one flag per column, predicate p's at preds[p].col
	// onward: whether the column keeps posting chains.
	indexed []bool

	// facts stores and deduplicates the facts: tag = predicate, member
	// id = FactID, and its arena holds every fact's arguments.
	facts TupleSet
	// next is parallel to the facts' arena: the next fact id+1 in the
	// (pred, pos, term) chain through that argument, 0 at the tail or in
	// an unindexed column. It is nil until a column is indexed.
	next   []int32
	byPred [][]FactID
	index  postTable

	atomBuf []TermID // AddLogicAtom scratch (single-writer, like all mutation)
}

// predInfo describes an interned predicate.
type predInfo struct {
	arity int32
	col   int32 // the predicate's first flag in Instance.indexed
}

// New creates an empty instance with a fresh term table.
func New() *Instance {
	return &Instance{
		Terms:      NewTermTable(),
		predByName: make(map[string]PredID),
	}
}

// Pred interns a predicate by name and arity. Using one name with two
// different arities is a programming error and panics (the parser and
// RuleSet.Validate reject such inputs earlier).
func (in *Instance) Pred(name string, arity int) PredID {
	if id, ok := in.predByName[name]; ok {
		if a := in.PredArity(id); a != arity {
			panic(fmt.Sprintf("instance: predicate %s used with arity %d and %d", name, a, arity))
		}
		return id
	}
	id := PredID(len(in.predNames))
	in.predByName[name] = id
	in.predNames = append(in.predNames, name)
	in.preds = append(in.preds, predInfo{arity: int32(arity), col: int32(len(in.indexed))})
	in.indexed = append(in.indexed, make([]bool, arity)...)
	in.byPred = append(in.byPred, nil)
	return id
}

// LookupPred returns the id of a predicate if already interned.
func (in *Instance) LookupPred(name string) (PredID, bool) {
	id, ok := in.predByName[name]
	return id, ok
}

// PredName returns the name of a predicate id.
func (in *Instance) PredName(p PredID) string { return in.predNames[p] }

// PredArity returns the arity of a predicate id.
func (in *Instance) PredArity(p PredID) int { return int(in.preds[p].arity) }

// NumPreds returns the number of interned predicates.
func (in *Instance) NumPreds() int { return len(in.predNames) }

// Size returns the number of stored facts.
func (in *Instance) Size() int { return in.facts.Len() }

// Fact returns the fact with the given id. Its Args is a read-only view
// of the fact store, capped at the fact's arity.
func (in *Instance) Fact(id FactID) Fact {
	return Fact{Pred: PredID(in.facts.Tag(int32(id))), Args: in.facts.Tuple(int32(id))}
}

// Add inserts the fact p(args...) if not already present. It returns the
// fact id and whether the fact was newly added. The args slice is copied.
// A new fact is linked into the posting chains of its indexed columns
// only.
//
//chaselint:hotpath
func (in *Instance) Add(p PredID, args []TermID) (FactID, bool) {
	m, added := in.facts.Insert(int32(p), args)
	id := FactID(m)
	if !added {
		return id, false
	}
	reserve(&in.byPred[p], 1)
	in.byPred[p] = append(in.byPred[p], id)
	if in.next == nil {
		return id, true // no column is indexed
	}
	// next only grows, so its memory past the length is still zero.
	n := len(in.next) + len(args)
	reserve(&in.next, len(args))
	in.next = in.next[:n]
	col := in.preds[p].col
	for i, t := range args {
		if in.indexed[col+int32(i)] {
			in.link(p, int32(i), t, id)
		}
	}
	return id, true
}

// link appends fact id to the posting chain of (p, pos, t).
//
//chaselint:hotpath
func (in *Instance) link(p PredID, pos int32, t TermID, id FactID) {
	if (in.index.n+1)*4 > len(in.index.entries)*3 {
		in.index.reserve(1)
	}
	e := in.index.lookup(p, pos, t)
	if e.count == 0 {
		*e = postEntry{pred: p, pos: pos, term: t, head: id, tail: id, count: 1}
		in.index.n++
		return
	}
	in.next[in.facts.offs[e.tail]+pos] = int32(id) + 1
	e.tail = id
	e.count++
}

// IndexColumn makes the column (p, pos) keep posting chains, so the
// matcher can walk the facts whose argument at pos is a given term
// instead of scanning p's extent. It links the facts stored so far, in
// insertion order, and Add links every later one. Indexing a column
// again only reads its flag. A column is indexed when a compiled
// pattern's plans probe it (PatternSet.Compile, CompileHead); the first
// indexed column allocates the chain array, so an instance none of whose
// columns is probed keeps no index at all. IndexColumn is a write under
// the single-writer contract.
func (in *Instance) IndexColumn(p PredID, pos int) {
	if pos < 0 || pos >= in.PredArity(p) {
		panic(fmt.Sprintf("instance: column %d of %s/%d", pos, in.predNames[p], in.PredArity(p)))
	}
	c := int(in.preds[p].col) + pos
	if in.indexed[c] {
		return
	}
	in.indexed[c] = true
	if in.next == nil {
		in.next = make([]int32, len(in.facts.arena), max(cap(in.facts.arena), 8))
	}
	facts := in.byPred[p]
	in.index.reserve(len(facts))
	for _, id := range facts {
		in.link(p, int32(pos), in.facts.arena[in.facts.offs[id]+int32(pos)], id)
	}
}

// IndexAll indexes every column of every predicate interned so far.
func (in *Instance) IndexAll() {
	for p, pi := range in.preds {
		for pos := range int(pi.arity) {
			in.IndexColumn(PredID(p), pos)
		}
	}
}

// Indexed reports whether the column (p, pos) keeps posting chains; a
// position outside p's arity is no column.
func (in *Instance) Indexed(p PredID, pos int) bool {
	return pos >= 0 && pos < in.PredArity(p) && in.indexed[int(in.preds[p].col)+pos]
}

// IndexBytes returns the bytes held by the posting index: its table and
// its chain array. It is 0 while no column is indexed.
func (in *Instance) IndexBytes() int {
	return cap(in.index.entries)*int(unsafe.Sizeof(postEntry{})) + cap(in.next)*4
}

// Contains reports whether the fact p(args...) is present. It performs no
// allocation.
//
//chaselint:hotpath
func (in *Instance) Contains(p PredID, args []TermID) bool {
	return in.facts.Contains(int32(p), args)
}

// Lookup returns the id of the fact p(args...) if present. Like Contains
// it performs no allocation.
//
//chaselint:hotpath
func (in *Instance) Lookup(p PredID, args []TermID) (FactID, bool) {
	id, ok := in.facts.Lookup(int32(p), args)
	return FactID(id), ok
}

// ByPred returns the ids of all facts with the given predicate, in insertion
// order. The slice must not be modified.
func (in *Instance) ByPred(p PredID) []FactID { return in.byPred[p] }

// posting looks up the (pred, pos, term) index chain. The column must be
// indexed (which also sizes the table): an unindexed column has no
// chains, so a miss there would say nothing about the facts.
func (in *Instance) posting(p PredID, pos int32, term TermID) (postEntry, bool) {
	e := in.index.lookup(p, pos, term)
	if e.count == 0 {
		return postEntry{}, false
	}
	return *e, true
}

// ByPosTerm returns the ids of all facts with predicate p whose argument
// at position pos equals term, in insertion order. It walks the column's
// posting chain when the column is indexed and scans p's extent when it
// is not; either way it materializes a fresh slice per call — it is a
// convenience for tests and diagnostics; the matcher walks the chains
// directly.
func (in *Instance) ByPosTerm(p PredID, pos int, term TermID) []FactID {
	if pos < 0 || pos >= in.PredArity(p) {
		return nil
	}
	if !in.Indexed(p, pos) {
		var out []FactID
		for _, id := range in.byPred[p] {
			if in.facts.arena[in.facts.offs[id]+int32(pos)] == term {
				out = append(out, id)
			}
		}
		return out
	}
	ref, ok := in.posting(p, int32(pos), term)
	if !ok {
		return nil
	}
	out := make([]FactID, 0, ref.count)
	for id, n := ref.head, ref.count; n > 0; n-- {
		out = append(out, id)
		nx := in.next[in.facts.offs[id]+int32(pos)]
		if nx == 0 {
			break
		}
		id = FactID(nx - 1)
	}
	return out
}

// AddLogicAtom interns and inserts a ground logic.Atom (constants only).
// It returns an error if the atom contains a variable.
func (in *Instance) AddLogicAtom(a logic.Atom) (FactID, bool, error) {
	p := in.Pred(a.Pred, len(a.Args))
	if cap(in.atomBuf) < len(a.Args) {
		in.atomBuf = make([]TermID, len(a.Args))
	}
	args := in.atomBuf[:len(a.Args)]
	for i, t := range a.Args {
		c, ok := t.(logic.Constant)
		if !ok {
			return 0, false, fmt.Errorf("instance: atom %s is not ground", a)
		}
		args[i] = in.Terms.Const(string(c))
	}
	id, added := in.Add(p, args) // Add copies args
	return id, added, nil
}

// FromAtoms builds an instance from ground atoms.
func FromAtoms(atoms []logic.Atom) (*Instance, error) {
	in := New()
	for _, a := range atoms {
		if _, _, err := in.AddLogicAtom(a); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// FactString renders a fact for diagnostics; see AppendFact.
func (in *Instance) FactString(id FactID) string {
	return string(in.AppendFact(nil, id))
}

// AppendFact appends the fact's surface syntax to dst and returns the
// extended buffer: p(t1,...,tn) with every term rendered by
// TermTable.AppendTerm, or the bare predicate name of a nullary fact.
func (in *Instance) AppendFact(dst []byte, id FactID) []byte {
	dst = append(dst, in.predNames[in.facts.Tag(int32(id))]...)
	args := in.facts.Tuple(int32(id))
	if len(args) == 0 {
		return dst
	}
	dst = append(dst, '(')
	for i, a := range args {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = in.Terms.AppendTerm(dst, a)
	}
	return append(dst, ')')
}

// Strings renders every fact, sorted lexicographically — convenient for
// tests and goldens. Each fact is a substring of one string, sized
// exactly before it is written: a first pass renders each term that
// occurs in a fact once and sums the facts' lengths, a second copies the
// predicate names and term texts into place. The result takes a few
// allocations in all, and no buffer growth.
func (in *Instance) Strings() []string {
	// span[t] is term t's text in terms as [lo, hi+1); 0 = not rendered.
	span := make([][2]int32, in.Terms.Len())
	var terms []byte
	ends := make([]int, in.Size())
	n := 0
	for i := range ends {
		args := in.facts.Tuple(int32(i))
		n += len(in.predNames[in.facts.Tag(int32(i))])
		if len(args) > 0 {
			n += len(args) + 1 // parentheses and commas
		}
		for _, a := range args {
			sp := &span[a]
			if sp[1] == 0 {
				sp[0] = int32(len(terms))
				terms = in.Terms.AppendTerm(terms, a)
				sp[1] = int32(len(terms)) + 1
			}
			n += int(sp[1] - 1 - sp[0])
		}
		ends[i] = n
	}
	var b strings.Builder
	b.Grow(n)
	for i := range ends {
		b.WriteString(in.predNames[in.facts.Tag(int32(i))])
		args := in.facts.Tuple(int32(i))
		for j, a := range args {
			if j == 0 {
				b.WriteByte('(')
			} else {
				b.WriteByte(',')
			}
			b.Write(terms[span[a][0] : span[a][1]-1])
		}
		if len(args) > 0 {
			b.WriteByte(')')
		}
	}
	out := SplitAt(make([]string, 0, len(ends)), b.String(), ends)
	sort.Strings(out)
	return out
}

// SplitAt appends to dst the consecutive substrings of s that end at the
// given offsets: s[0:ends[0]], s[ends[0]:ends[1]], ...
func SplitAt(dst []string, s string, ends []int) []string {
	lo := 0
	for _, hi := range ends {
		dst = append(dst, s[lo:hi])
		lo = hi
	}
	return dst
}

// MaxInventedDepth returns the maximum Skolem/null depth over all terms
// occurring in facts; 0 if the instance is invention-free.
func (in *Instance) MaxInventedDepth() int32 {
	var d int32
	for _, t := range in.facts.arena {
		if dd := in.Terms.Depth(t); dd > d {
			d = dd
		}
	}
	return d
}
