// Package graph provides the small directed-graph machinery shared by the
// acyclicity criteria of the paper: graphs whose edges are either regular or
// special (the dependency-graph notation of Fagin et al., where special
// edges record the creation of fresh labelled nulls), strongly connected
// components, and detection of cycles that traverse at least one special
// edge — the condition whose absence defines weak/rich acyclicity.
package graph

// Edge is a directed edge; Special marks the dependency-graph edges that
// correspond to the creation of a new null value.
type Edge struct {
	From, To int
	Special  bool
}

// Graph is a directed multigraph over nodes 0..N-1 with regular and special
// edges. edges is the only edge store: each node's out-edges are chained
// through it in insertion order, from head[v] to tail[v] along next (all
// three hold an edge index plus one; 0 ends the chain), so adding an edge
// allocates nothing per node.
type Graph struct {
	n          int
	head, tail []int32
	edges      []Edge
	next       []int32
}

// New creates a graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{n: n, head: make([]int32, n), tail: make([]int32, n)}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return g.n }

// Edges returns all edges in insertion order. The slice must not be
// modified.
func (g *Graph) Edges() []Edge { return g.edges }

// AddNode appends a fresh node and returns its index.
func (g *Graph) AddNode() int {
	g.head = append(g.head, 0)
	g.tail = append(g.tail, 0)
	g.n++
	return g.n - 1
}

// AddEdge inserts a directed edge. Duplicate edges are kept (harmless for
// the analyses here) unless AddEdgeDedup is used.
func (g *Graph) AddEdge(from, to int, special bool) {
	g.edges = append(g.edges, Edge{From: from, To: to, Special: special})
	g.next = append(g.next, 0)
	ei := int32(len(g.edges))
	if t := g.tail[from]; t != 0 {
		g.next[t-1] = ei
	} else {
		g.head[from] = ei
	}
	g.tail[from] = ei
}

// AddEdgeDedup inserts the edge unless an identical edge already leaves
// from. It is O(out-degree); fine for the schema-sized graphs used here.
func (g *Graph) AddEdgeDedup(from, to int, special bool) {
	for ei := g.head[from]; ei != 0; ei = g.next[ei-1] {
		if e := &g.edges[ei-1]; e.To == to && e.Special == special {
			return
		}
	}
	g.AddEdge(from, to, special)
}

// SCC computes strongly connected components with Tarjan's algorithm
// (iterative, so deep graphs cannot overflow the goroutine stack). It
// returns comp, the component index of every node, and the number of
// components. Component indexes are in reverse topological order of the
// condensation (successors first).
func (g *Graph) SCC() (comp []int, ncomp int) {
	const unvisited = -1
	comp = make([]int, g.n)
	index := make([]int, g.n)
	low := make([]int, g.n)
	onStack := make([]bool, g.n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	next := 0

	// ei is the next out-edge of v to explore, as in Graph.head.
	type frame struct {
		v  int
		ei int32
	}
	for root := 0; root < g.n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{root, g.head[root]}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei != 0 {
				w := g.edges[f.ei-1].To
				f.ei = g.next[f.ei-1]
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, g.head[w]})
				} else if onStack[w] {
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			// post-order: pop
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, ncomp
}

// SpecialCycleEdge returns a special edge that lies on some cycle, or nil if
// no cycle of the graph traverses a special edge. A special edge e lies on a
// cycle exactly when both its endpoints are in the same strongly connected
// component (self-loops included). This is the standard weak-acyclicity
// test.
func (g *Graph) SpecialCycleEdge() *Edge {
	comp, _ := g.SCC()
	for i := range g.edges {
		e := &g.edges[i]
		if e.Special && comp[e.From] == comp[e.To] {
			return e
		}
	}
	return nil
}

// HasSpecialCycle reports whether some cycle traverses a special edge.
func (g *Graph) HasSpecialCycle() bool { return g.SpecialCycleEdge() != nil }

// CycleEdge returns an edge — regular or special — that lies on some
// cycle, or nil if the graph is acyclic. The same SCC argument as
// SpecialCycleEdge applies: an edge lies on a cycle exactly when both
// endpoints share a strongly connected component and that component is
// not a single loop-free node. Used to report witness cycles for
// criteria whose graphs have no special edges (joint acyclicity's feeds
// graph).
func (g *Graph) CycleEdge() *Edge {
	comp, _ := g.SCC()
	size := make(map[int]int)
	for _, c := range comp {
		size[c]++
	}
	for i := range g.edges {
		e := &g.edges[i]
		if comp[e.From] == comp[e.To] && (size[comp[e.From]] > 1 || e.From == e.To) {
			return e
		}
	}
	return nil
}

// CycleThrough returns a cycle (as a node sequence v0, v1, ..., vk = v0)
// that traverses the given special edge, or nil if none exists. Used to
// report human-readable witnesses for non-termination verdicts.
func (g *Graph) CycleThrough(e Edge) []int {
	// A cycle through e exists iff e.To can reach e.From.
	path := g.pathBFS(e.To, e.From)
	if path == nil {
		return nil
	}
	cycle := append([]int{e.From}, path...)
	return cycle
}

// pathBFS returns a path from src to dst (inclusive), or nil. A zero-length
// path [src] is returned when src == dst.
func (g *Graph) pathBFS(src, dst int) []int {
	prev := make([]int, g.n)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	// The queue is read through an index, not resliced from the front:
	// a resliced queue loses its spare capacity and reallocates on
	// nearly every append.
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if v == dst {
			var rev []int
			for u := dst; ; u = prev[u] {
				rev = append(rev, u)
				if u == src {
					break
				}
			}
			path := make([]int, len(rev))
			for i := range rev {
				path[i] = rev[len(rev)-1-i]
			}
			return path
		}
		for ei := g.head[v]; ei != 0; ei = g.next[ei-1] {
			if w := g.edges[ei-1].To; prev[w] == -1 {
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	return nil
}

// Reachable returns the set of nodes reachable from the given sources
// (sources included), as a boolean slice.
func (g *Graph) Reachable(sources ...int) []bool {
	seen := make([]bool, g.n)
	queue := make([]int, 0, len(sources))
	for _, s := range sources {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for ei := g.head[v]; ei != 0; ei = g.next[ei-1] {
			if w := g.edges[ei-1].To; !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen
}

// HasCycle reports whether the graph has any directed cycle (regular or
// special). A node with a self-loop counts; otherwise any SCC with more
// than one node, or any edge within a single-node SCC, witnesses a cycle.
func (g *Graph) HasCycle() bool {
	comp, _ := g.SCC()
	size := make(map[int]int)
	for _, c := range comp {
		size[c]++
	}
	for _, e := range g.edges {
		if comp[e.From] == comp[e.To] && (size[comp[e.From]] > 1 || e.From == e.To) {
			return true
		}
	}
	return false
}
