package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func adj(edges map[int32][]int32) Succ {
	return func(v int32) []int32 { return edges[v] }
}

// sccs runs Search over the static graph 0..n-1 and collects every
// component.
func sccs(n int, succ Succ) [][]int32 {
	var comps [][]int32
	Search(nil, Vertices(n), Static(succ), func(comp []int32) bool {
		comps = append(comps, append([]int32(nil), comp...))
		return false
	})
	return comps
}

// componentOf returns, for each vertex, the index of its component in
// comps.
func componentOf(n int, comps [][]int32) []int {
	comp := make([]int, n)
	for ci, c := range comps {
		for _, v := range c {
			comp[v] = ci
		}
	}
	return comp
}

func TestSCCsSimpleCycle(t *testing.T) {
	succ := adj(map[int32][]int32{0: {1}, 1: {2}, 2: {0}})
	comps := sccs(3, succ)
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("SCCs = %v, want one component of size 3", comps)
	}
}

func TestSCCsChain(t *testing.T) {
	succ := adj(map[int32][]int32{0: {1}, 1: {2}})
	comps := sccs(3, succ)
	if len(comps) != 3 {
		t.Fatalf("SCCs = %v, want three singletons", comps)
	}
	// Reverse topological order: sinks first.
	if comps[0][0] != 2 || comps[2][0] != 0 {
		t.Errorf("order not reverse-topological: %v", comps)
	}
}

func TestSCCsTwoComponents(t *testing.T) {
	// 0<->1 -> 2<->3, plus a trivial isolated 4.
	succ := adj(map[int32][]int32{0: {1}, 1: {0, 2}, 2: {3}, 3: {2}})
	comps := sccs(5, succ)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[2] != 2 || sizes[1] != 1 {
		t.Errorf("component sizes wrong: %v", comps)
	}
	compOf := componentOf(5, comps)
	if compOf[0] != compOf[1] || compOf[2] != compOf[3] || compOf[0] == compOf[2] {
		t.Errorf("componentOf wrong: %v", compOf)
	}
}

func TestIsTrivialSCC(t *testing.T) {
	succ := adj(map[int32][]int32{0: {0}, 1: {0}})
	if IsTrivialSCC([]int32{0}, succ) {
		t.Error("self-loop state reported trivial")
	}
	if !IsTrivialSCC([]int32{1}, succ) {
		t.Error("loop-free singleton reported nontrivial")
	}
	if IsTrivialSCC([]int32{0, 1}, succ) {
		t.Error("multi-state component reported trivial")
	}
}

func TestReachableAndCoReachable(t *testing.T) {
	succ := adj(map[int32][]int32{0: {1}, 1: {2}, 3: {1}})
	r, err := Reachable(nil, 4, []int32{0}, succ)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, false}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Reachable[%d] = %v, want %v", i, r[i], want[i])
		}
	}
	co := CoReachable(4, []bool{false, false, true, false}, succ)
	wantCo := []bool{true, true, true, true}
	for i := range wantCo {
		if co[i] != wantCo[i] {
			t.Errorf("CoReachable[%d] = %v, want %v", i, co[i], wantCo[i])
		}
	}
}

func TestBottomSCCs(t *testing.T) {
	// 0 -> {1<->2} (bottom), 0 -> 3 (bottom self-loop), 4 unreachable cycle.
	succ := adj(map[int32][]int32{0: {1, 3}, 1: {2}, 2: {1}, 3: {3}, 4: {4}})
	bottoms := BottomSCCs([]int32{0}, succ)
	if len(bottoms) != 2 {
		t.Fatalf("bottoms = %v, want 2 components", bottoms)
	}
	var all []int
	for _, b := range bottoms {
		for _, v := range b {
			all = append(all, int(v))
		}
	}
	sort.Ints(all)
	want := []int{1, 2, 3}
	if len(all) != len(want) {
		t.Fatalf("bottom states = %v, want %v", all, want)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("bottom states = %v, want %v", all, want)
		}
	}
}

func TestShortestPath(t *testing.T) {
	succ := adj(map[int32][]int32{0: {1, 2}, 1: {3}, 2: {3}, 3: {4}})
	p := ShortestPath(5, []int32{0}, succ, func(v int32) bool { return v == 4 })
	if len(p) != 4 || p[0] != 0 || p[3] != 4 {
		t.Errorf("path = %v", p)
	}
	if p := ShortestPath(5, []int32{1}, succ, func(v int32) bool { return v == 2 }); p != nil {
		t.Errorf("expected nil path, got %v", p)
	}
	if p := ShortestPath(5, []int32{3}, succ, func(v int32) bool { return v == 3 }); len(p) != 1 {
		t.Errorf("source-is-goal path = %v, want [3]", p)
	}
}

// TestSCCsRandomAgainstNaive cross-checks Search against a naive
// O(n·(n+m)) mutual-reachability computation on random graphs, three
// ways: over the static graph 0..n-1; over the same graph with ids
// interned lazily, in the order a product exploration would assign
// them, from the successor callback; and stopped early at a chosen
// component. It also checks that every tree edge is an edge of the
// graph at the position Tree.Edge names.
func TestSCCsRandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(14)
		edges := map[int32][]int32{}
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			edges[u] = append(edges[u], v)
		}
		succ := adj(edges)

		reachFrom := make([][]bool, n)
		for v := 0; v < n; v++ {
			reachFrom[v], _ = Reachable(nil, n, []int32{int32(v)}, succ)
		}
		sameComp := func(u, v int) bool { return reachFrom[u][v] && reachFrom[v][u] }

		comps := sccs(n, succ)
		compOf := componentOf(n, comps)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if (compOf[u] == compOf[v]) != sameComp(u, v) {
					t.Fatalf("trial %d: states %d,%d: tarjan %v, naive %v",
						trial, u, v, compOf[u] == compOf[v], sameComp(u, v))
				}
			}
		}
		// Reverse-topological order check.
		for ci, c := range comps {
			for _, v := range c {
				for _, w := range succ(v) {
					if compOf[w] > ci {
						t.Fatalf("trial %d: edge %d->%d violates reverse topo order", trial, v, w)
					}
				}
			}
		}

		// Lazy ids: from vertex 0, ids are handed out on first sight as
		// successors, so the per-vertex state must grow while the search
		// runs. Mapped back, the components and their order must equal
		// those of the static search from 0.
		var fromZero [][]int32
		Search(nil, []int32{0}, Static(succ), func(comp []int32) bool {
			fromZero = append(fromZero, append([]int32(nil), comp...))
			return false
		})
		id := map[int32]int32{}
		var orig []int32
		intern := func(v int32) int32 {
			if i, ok := id[v]; ok {
				return i
			}
			id[v] = int32(len(orig))
			orig = append(orig, v)
			return id[v]
		}
		var lazySucc [][]int32
		expand := func(i int32) ([]int32, error) {
			var out []int32
			for _, w := range succ(orig[i]) {
				out = append(out, intern(w))
			}
			for int32(len(lazySucc)) <= i {
				lazySucc = append(lazySucc, nil)
			}
			lazySucc[i] = out
			return out, nil
		}
		roots := []int32{intern(0)}
		var lazy [][]int32
		tree, err := Search(nil, roots, expand, func(comp []int32) bool {
			c := make([]int32, len(comp))
			for i, v := range comp {
				c[i] = orig[v]
			}
			lazy = append(lazy, c)
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(lazy) != fmt.Sprint(fromZero) {
			t.Fatalf("trial %d: lazy search found %v, static %v", trial, lazy, fromZero)
		}
		for v, p := range tree.Parent {
			if p == -1 {
				continue
			}
			if e := tree.Edge[v]; e < 0 || int(e) >= len(lazySucc[p]) || lazySucc[p][e] != int32(v) {
				t.Fatalf("trial %d: tree edge %d->%d at position %d is not an edge", trial, p, v, e)
			}
		}

		// Early stop: the search ends at the chosen component and
		// reports nothing after it.
		stopAt := rng.Intn(len(comps))
		var seen int
		_, err = Search(nil, Vertices(n), Static(succ), func(comp []int32) bool {
			seen++
			return seen == stopAt+1
		})
		if err != nil || seen != stopAt+1 {
			t.Fatalf("trial %d: stop at component %d, saw %d (err %v)", trial, stopAt, seen, err)
		}
	}
}

// TestSearchSuccError: an error from the successor callback aborts the
// search and reaches the caller.
func TestSearchSuccError(t *testing.T) {
	boom := errors.New("boom")
	succ := func(v int32) ([]int32, error) {
		if v == 2 {
			return nil, boom
		}
		return []int32{v + 1}, nil
	}
	called := false
	_, err := Search(nil, []int32{0}, succ, func([]int32) bool {
		called = true
		return false
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if called {
		t.Fatal("a component was reported before the failing vertex was expanded")
	}
}
