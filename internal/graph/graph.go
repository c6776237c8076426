// Package graph provides the directed-graph algorithms shared by the
// automata and fairness packages: one iterative Tarjan search for
// strongly connected components (iterative, so deep systems do not
// overflow the stack; lazy, so a product automaton can be expanded on
// the fly), reachability, bottom-SCC analysis, and shortest-path
// extraction.
package graph

import (
	"context"

	"relive/internal/interrupt"
)

// Succ returns the successor vertices of v as a slice the callee owns
// and the caller must not mutate. Implementations may yield duplicates;
// the algorithms tolerate them.
type Succ func(v int32) []int32

// CSR is a compressed-sparse-row adjacency list: the successors of
// vertex v are Dst[Off[v]:Off[v+1]]. It is the compiled form the
// automata packages hand to the graph algorithms (as g.Succ) so the
// inner loops walk flat arrays. Duplicate edges are tolerated.
type CSR struct {
	Off []int32
	Dst []int32
}

// Succ returns the successor slice of v (shared, do not mutate).
func (g CSR) Succ(v int32) []int32 { return g.Dst[g.Off[v]:g.Off[v+1]] }

// Reverse returns the reversed graph of vertices 0..n-1, built in
// O(V+E) with two passes over succ.
func Reverse(n int, succ Succ) CSR {
	off := make([]int32, n+1)
	for v := int32(0); v < int32(n); v++ {
		for _, w := range succ(v) {
			off[w+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	dst := make([]int32, off[n])
	next := make([]int32, n)
	copy(next, off[:n])
	for v := int32(0); v < int32(n); v++ {
		for _, w := range succ(v) {
			dst[next[w]] = v
			next[w]++
		}
	}
	return CSR{Off: off, Dst: dst}
}

// Tree is the depth-first forest a Search built. Parent[v] is the
// vertex from which v was first reached, -1 for roots and for vertices
// the search never reached; Edge[v] is the position of v in Parent[v]'s
// successor slice, so a caller that labels its edges can read the label
// of every tree edge back. Both slices are indexed by vertex id and may
// be shorter than the largest id the caller interned.
type Tree struct {
	Parent []int32
	Edge   []int32
}

// Search runs Tarjan's strongly-connected-components algorithm from
// each root in order (roots already reached are skipped), calling
// onComp with each component as it pops, in reverse topological order
// of the graph reached: every edge leaving a component points to a
// component reported earlier. Members are listed in pop order, the
// component's root last. The comp slice is reused after onComp returns,
// so onComp must copy what it keeps. The search stops as soon as onComp
// returns true.
//
// Vertices are dense non-negative ids the caller interns; the
// per-vertex state grows as new ids appear, so one search serves a
// static graph (roots 0..n-1) and a product expanded lazily by succ.
// succ is called exactly once per reached vertex, when it is first
// reached, and its error aborts the search. A non-nil ctx is polled
// once per step and its error aborts the search too.
func Search(ctx context.Context, roots []int32, succ func(v int32) ([]int32, error), onComp func(comp []int32) (stop bool)) (Tree, error) {
	const unvisited = -1
	type frame struct {
		v    int32
		succ []int32
		next int32
	}
	var (
		index, low  []int32
		onStack     []bool
		tree        Tree
		stack, comp []int32
		frames      []frame
		counter     int32
		tick        interrupt.Tick
	)
	grow := func(v int32) {
		for int32(len(index)) <= v {
			index = append(index, unvisited)
			low = append(low, 0)
			onStack = append(onStack, false)
			tree.Parent = append(tree.Parent, -1)
			tree.Edge = append(tree.Edge, -1)
		}
	}
	enter := func(v int32) error {
		out, err := succ(v)
		if err != nil {
			return err
		}
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		frames = append(frames, frame{v: v, succ: out})
		return nil
	}
	for _, root := range roots {
		grow(root)
		if index[root] != unvisited {
			continue
		}
		if err := enter(root); err != nil {
			return Tree{}, err
		}
		for len(frames) > 0 {
			if err := tick.Poll(ctx); err != nil {
				return Tree{}, err
			}
			f := &frames[len(frames)-1]
			descended := false
			for int(f.next) < len(f.succ) {
				w := f.succ[f.next]
				f.next++
				grow(w)
				if index[w] == unvisited {
					tree.Parent[w], tree.Edge[w] = f.v, f.next-1
					if err := enter(w); err != nil {
						return Tree{}, err
					}
					descended = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if descended {
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if low[v] == index[v] {
				comp = comp[:0]
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if onComp(comp) {
					return tree, nil
				}
			}
			if len(frames) > 0 {
				if p := &frames[len(frames)-1]; low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	return tree, nil
}

// Vertices returns 0..n-1, the roots of a Search over a static graph.
func Vertices(n int) []int32 {
	out := make([]int32, n)
	for v := range out {
		out[v] = int32(v)
	}
	return out
}

// Static adapts a successor function that cannot fail to Search.
func Static(succ Succ) func(v int32) ([]int32, error) {
	return func(v int32) ([]int32, error) { return succ(v), nil }
}

// IsTrivialSCC reports whether comp is a single vertex without a
// self-loop, i.e. carries no cycle.
func IsTrivialSCC(comp []int32, succ Succ) bool {
	if len(comp) > 1 {
		return false
	}
	v := comp[0]
	for _, w := range succ(v) {
		if w == v {
			return false
		}
	}
	return true
}

// Reachable returns the set of vertices of 0..n-1 reachable from the
// given sources (including the sources themselves). A non-nil ctx is
// polled inside the BFS loop; when it is cancelled the expansion stops
// and the context's error is returned.
func Reachable(ctx context.Context, n int, sources []int32, succ Succ) ([]bool, error) {
	seen := make([]bool, n)
	queue := make([]int32, 0, len(sources))
	for _, s := range sources {
		if s >= 0 && int(s) < n && !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	var tick interrupt.Tick
	for qi := 0; qi < len(queue); qi++ {
		if err := tick.Poll(ctx); err != nil {
			return nil, err
		}
		for _, w := range succ(queue[qi]) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen, nil
}

// CoReachable returns the set of vertices of 0..n-1 from which some
// target vertex is reachable, computed on the reversed graph.
func CoReachable(n int, targets []bool, succ Succ) []bool {
	rev := Reverse(n, succ)
	seen := make([]bool, n)
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if targets[v] {
			seen[v] = true
			queue = append(queue, int32(v))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		for _, w := range rev.Succ(queue[qi]) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen
}

// BottomSCCs returns the components reachable from sources out of which
// no edge leaves. In a finite system whose every state has a successor,
// the strongly fair runs are exactly the runs whose infinity set is
// such a bottom component.
func BottomSCCs(sources []int32, succ Succ) [][]int32 {
	var (
		bottoms [][]int32
		compOf  []int32 // 1 + the index of a vertex's component, 0 while unassigned
		id      int32
	)
	// Cannot fail: a nil ctx never cancels and a static succ never errs.
	Search(nil, sources, Static(succ), func(comp []int32) bool {
		id++
		for _, v := range comp {
			for int32(len(compOf)) <= v {
				compOf = append(compOf, 0)
			}
			compOf[v] = id
		}
		// Every successor was reached before comp popped, so it is
		// either a member or belongs to an earlier component.
		for _, v := range comp {
			for _, w := range succ(v) {
				if compOf[w] != id {
					return false
				}
			}
		}
		bottoms = append(bottoms, append([]int32(nil), comp...))
		return false
	})
	return bottoms
}

// ShortestPath returns a shortest path (as a vertex sequence, inclusive of
// both endpoints) from any source to any vertex satisfying goal, or nil
// when no such vertex is reachable.
func ShortestPath(n int, sources []int32, succ Succ, goal func(v int32) bool) []int32 {
	parent := make([]int32, n)
	seen := make([]bool, n)
	for i := range parent {
		parent[i] = -1
	}
	var queue []int32
	for _, s := range sources {
		if s < 0 || int(s) >= n || seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue, s)
		if goal(s) {
			return []int32{s}
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, w := range succ(v) {
			if seen[w] {
				continue
			}
			seen[w] = true
			parent[w] = v
			if goal(w) {
				var path []int32
				for u := w; u != -1; u = parent[u] {
					path = append(path, u)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, w)
		}
	}
	return nil
}
