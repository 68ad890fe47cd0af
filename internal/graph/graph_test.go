package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSCCLine(t *testing.T) {
	// 0 -> 1 -> 2: three singleton components.
	g := New(3)
	g.AddEdge(0, 1, false)
	g.AddEdge(1, 2, false)
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("ncomp: got %d, want 3", n)
	}
	if comp[0] == comp[1] || comp[1] == comp[2] {
		t.Errorf("components merged: %v", comp)
	}
	// Reverse topological order: successors get smaller component ids.
	if !(comp[2] < comp[1] && comp[1] < comp[0]) {
		t.Errorf("component order not reverse-topological: %v", comp)
	}
}

func TestSCCCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, false)
	g.AddEdge(1, 2, false)
	g.AddEdge(2, 0, false)
	g.AddEdge(2, 3, false)
	comp, n := g.SCC()
	if n != 2 {
		t.Fatalf("ncomp: got %d, want 2", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("cycle not merged: %v", comp)
	}
	if comp[3] == comp[0] {
		t.Errorf("node 3 merged into the cycle: %v", comp)
	}
}

func TestSpecialCycle(t *testing.T) {
	// Regular cycle only: no special cycle.
	g := New(2)
	g.AddEdge(0, 1, false)
	g.AddEdge(1, 0, false)
	if g.HasSpecialCycle() {
		t.Error("regular cycle flagged as special")
	}
	// Adding a special edge inside the SCC flips the answer.
	g.AddEdge(0, 1, true)
	if !g.HasSpecialCycle() {
		t.Error("special edge in SCC not detected")
	}
}

func TestSpecialSelfLoop(t *testing.T) {
	g := New(1)
	g.AddEdge(0, 0, true)
	e := g.SpecialCycleEdge()
	if e == nil {
		t.Fatal("special self-loop not detected")
	}
	cyc := g.CycleThrough(*e)
	if len(cyc) < 2 || cyc[0] != 0 || cyc[len(cyc)-1] != 0 {
		t.Errorf("cycle: %v", cyc)
	}
}

func TestSpecialEdgeOutsideCycle(t *testing.T) {
	// 0 =special=> 1 -> 2 (no way back): acyclic.
	g := New(3)
	g.AddEdge(0, 1, true)
	g.AddEdge(1, 2, false)
	if g.HasSpecialCycle() {
		t.Error("dag flagged as having a special cycle")
	}
	if g.HasCycle() {
		t.Error("dag flagged as cyclic")
	}
}

func TestCycleThrough(t *testing.T) {
	// 0 =s=> 1 -> 2 -> 0.
	g := New(3)
	g.AddEdge(0, 1, true)
	g.AddEdge(1, 2, false)
	g.AddEdge(2, 0, false)
	e := g.SpecialCycleEdge()
	if e == nil {
		t.Fatal("no special cycle found")
	}
	cyc := g.CycleThrough(*e)
	want := []int{0, 1, 2, 0}
	if len(cyc) != len(want) {
		t.Fatalf("cycle: %v", cyc)
	}
	for i := range want {
		if cyc[i] != want[i] {
			t.Fatalf("cycle: %v, want %v", cyc, want)
		}
	}
}

func TestReachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, false)
	g.AddEdge(2, 3, false)
	r := g.Reachable(0)
	if !r[0] || !r[1] || r[2] || r[3] {
		t.Errorf("reachable: %v", r)
	}
	r = g.Reachable(0, 2)
	if !r[3] {
		t.Errorf("multi-source reachable: %v", r)
	}
}

func TestAddEdgeDedup(t *testing.T) {
	g := New(2)
	g.AddEdgeDedup(0, 1, false)
	g.AddEdgeDedup(0, 1, false)
	g.AddEdgeDedup(0, 1, true) // different kind: kept
	if len(g.Edges()) != 2 {
		t.Errorf("edges: %d, want 2", len(g.Edges()))
	}
}

// TestOutEdgeOrder: a node's out-edges are visited in insertion order,
// even when other nodes' edges are interleaved with them, so the BFS
// witness takes the first-inserted branch; dedup sees the whole chain.
func TestOutEdgeOrder(t *testing.T) {
	g := New(5)
	for _, e := range [][2]int{{0, 3}, {3, 4}, {0, 1}, {1, 4}, {0, 2}, {2, 4}} {
		g.AddEdge(e[0], e[1], false)
	}
	g.AddEdgeDedup(0, 1, false)
	g.AddEdgeDedup(2, 4, false)
	g.AddEdge(4, 0, true)
	if len(g.Edges()) != 7 {
		t.Errorf("edges: %d, want 7 (dedup missed an existing edge)", len(g.Edges()))
	}
	if cyc, want := g.CycleThrough(Edge{From: 4, To: 0, Special: true}), []int{4, 0, 3, 4}; !slices.Equal(cyc, want) {
		t.Errorf("cycle: %v, want %v", cyc, want)
	}
}

func TestAddNode(t *testing.T) {
	g := New(0)
	a := g.AddNode()
	b := g.AddNode()
	if a != 0 || b != 1 || g.Len() != 2 {
		t.Errorf("AddNode ids: %d %d len %d", a, b, g.Len())
	}
	g.AddEdge(a, b, false)
	if r := g.Reachable(a); !r[b] {
		t.Error("edge lost")
	}
}

// naiveHasSpecialCycle re-derives the answer by brute-force DFS from every
// special edge: a special cycle exists iff some special edge (u,v) has a
// path v ->* u.
func naiveHasSpecialCycle(g *Graph) bool {
	for _, e := range g.Edges() {
		if !e.Special {
			continue
		}
		r := g.Reachable(e.To)
		if r[e.From] {
			return true
		}
	}
	return false
}

// TestSpecialCycleQuick cross-validates the SCC-based special-cycle test
// against the naive reachability definition on random graphs.
func TestSpecialCycleQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		g := New(n)
		edges := rng.Intn(3 * n)
		for i := 0; i < edges; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Intn(3) == 0)
		}
		return g.HasSpecialCycle() == naiveHasSpecialCycle(g)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSCCQuick: strongly-connectedness from the SCC labels must match
// pairwise mutual reachability.
func TestSCCQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		g := New(n)
		for i := 0; i < rng.Intn(2*n+1); i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), false)
		}
		comp, _ := g.SCC()
		for u := 0; u < n; u++ {
			ru := g.Reachable(u)
			for v := 0; v < n; v++ {
				rv := g.Reachable(v)
				mutual := ru[v] && rv[u]
				if mutual != (comp[u] == comp[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
