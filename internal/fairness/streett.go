package fairness

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"relive/internal/buchi"
	"relive/internal/graph"
	"relive/internal/interrupt"
	"relive/internal/ts"
)

// Kind selects a fairness notion.
type Kind int

// Fairness notions for ExistsFairRun.
const (
	Strong Kind = iota + 1
	Weak
)

// ExistsFairRun reports whether the system has a fair (per kind) run
// whose action word is accepted by prop. It returns a witness run when
// one exists.
//
// Fairness is evaluated on the trimmed system: the system is trimmed
// before the search, so transitions into dead-end states (which no
// infinite run can take) and transitions of unreachable states impose
// no fairness obligations. Run.IsStronglyFair and Run.IsWeaklyFair use
// the same convention, so witnesses always validate against it.
//
// The search works on the product of the trimmed system's edge graph
// with prop: a vertex means "the system just took edge e and prop is in
// state b". Strong transition fairness is a Streett condition — one
// pair per system edge t, with E_t = vertices at t's source state and
// F_t = vertices that just took t — plus the Büchi pair (all vertices,
// prop accepting). Emptiness uses the classic SCC-restriction
// algorithm: an SCC violating a pair is shrunk by removing that pair's
// E-vertices and re-decomposed. A fair lasso is then stitched through
// one witness SCC and mapped back to the original system's states.
func ExistsFairRun(sys *ts.System, prop *buchi.Buchi, kind Kind) (Run, bool, error) {
	return ExistsFairRunCtx(nil, sys, prop, kind)
}

// ExistsFairRunCtx is ExistsFairRun with cooperative cancellation
// checkpoints in the trim, the product exploration and the SCC
// refinement. A nil ctx never cancels; a context error is returned
// as-is (wrapped), never conflated with the "no fair run" verdict.
func ExistsFairRunCtx(ctx context.Context, sys *ts.System, prop *buchi.Buchi, kind Kind) (Run, bool, error) {
	if sys.Initial() < 0 {
		return Run{}, false, fmt.Errorf("fairness: system has no initial state")
	}
	if kind != Strong && kind != Weak {
		return Run{}, false, fmt.Errorf("fairness: unknown fairness kind %d", int(kind))
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Run{}, false, fmt.Errorf("fairness: %w", err)
		}
	}
	// Trim first: fairness obligations come from the trimmed system only.
	trimmed, err := sys.TrimCtx(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return Run{}, false, fmt.Errorf("fairness: %w", err)
		}
		return Run{}, false, nil // no infinite behavior: no infinite run at all
	}
	g, err := buildProduct(ctx, trimmed, prop)
	if err != nil || len(g.verts) == 0 {
		return Run{}, false, err
	}
	n := len(g.verts)
	reach, err := graph.Reachable(ctx, n, g.initVerts, g.succ)
	if err != nil {
		return Run{}, false, fmt.Errorf("fairness: %w", err)
	}
	var roots []int32
	for v, r := range reach {
		if r {
			roots = append(roots, int32(v))
		}
	}
	comp, ok, err := findFairSCCWithin(ctx, g.succ, reach, roots, func(comp []int32) (bool, []int32) {
		return g.analyzeSCC(comp, kind)
	})
	if err != nil {
		return Run{}, false, fmt.Errorf("fairness: %w", err)
	}
	if !ok {
		return Run{}, false, nil
	}
	return mapRunByName(g.stitchRun(comp), trimmed, sys), true, nil
}

// mapRunByName rewrites a run over the trimmed system into the original
// system's state identifiers. Trimming preserves state names, so the
// lookup is total on witness runs.
func mapRunByName(r Run, trimmed, orig *ts.System) Run {
	conv := func(es []ts.Edge) []ts.Edge {
		if es == nil {
			return nil
		}
		out := make([]ts.Edge, len(es))
		for i, e := range es {
			from, _ := orig.LookupState(trimmed.StateName(e.From))
			to, _ := orig.LookupState(trimmed.StateName(e.To))
			out[i] = ts.Edge{From: from, Sym: e.Sym, To: to}
		}
		return out
	}
	return Run{Prefix: conv(r.Prefix), Loop: conv(r.Loop)}
}

// product is the exploration graph of (system edge, property state)
// vertices.
type product struct {
	sys       *ts.System
	prop      *buchi.Buchi
	edges     []ts.Edge
	verts     []prodVertex
	adj       [][]int32
	initVerts []int32
}

type prodVertex struct {
	e int // index into edges: the system edge just taken
	b buchi.State
}

func buildProduct(ctx context.Context, sys *ts.System, prop *buchi.Buchi) (*product, error) {
	g := &product{sys: sys, prop: prop, edges: sys.Edges()}
	if len(g.edges) == 0 {
		return g, nil
	}
	var tick interrupt.Tick
	index := map[prodVertex]int32{}
	intern := func(k prodVertex) int32 {
		if i, ok := index[k]; ok {
			return i
		}
		i := int32(len(g.verts))
		g.verts = append(g.verts, k)
		g.adj = append(g.adj, nil)
		index[k] = i
		return i
	}
	succsByState := map[ts.State][]int{}
	for ei, e := range g.edges {
		succsByState[e.From] = append(succsByState[e.From], ei)
	}
	var queue []int32
	seen := map[prodVertex]bool{}
	push := func(k prodVertex) int32 {
		i := intern(k)
		if !seen[k] {
			seen[k] = true
			queue = append(queue, i)
		}
		return i
	}
	for _, ei := range succsByState[sys.Initial()] {
		for _, b0 := range prop.Initial() {
			for _, b1 := range prop.Succ(b0, g.edges[ei].Sym) {
				g.initVerts = append(g.initVerts, push(prodVertex{ei, b1}))
			}
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		if err := tick.Poll(ctx); err != nil {
			return nil, fmt.Errorf("fairness: %w", err)
		}
		vi := queue[qi]
		k := g.verts[vi]
		for _, ei := range succsByState[g.edges[k.e].To] {
			for _, b1 := range prop.Succ(k.b, g.edges[ei].Sym) {
				g.adj[vi] = append(g.adj[vi], push(prodVertex{ei, b1}))
			}
		}
	}
	return g, nil
}

func (g *product) succ(v int32) []int32 { return g.adj[v] }

// analyzeSCC decides whether the component supports a fair accepted
// run. For a repairable strong-fairness violation it returns the
// E-vertices to remove before re-decomposing; otherwise nil.
func (g *product) analyzeSCC(comp []int32, kind Kind) (bool, []int32) {
	hasAccepting := false
	statesVisited := map[ts.State]bool{}
	edgesTaken := map[int]bool{}
	for _, v := range comp {
		k := g.verts[v]
		if g.prop.Accepting(k.b) {
			hasAccepting = true
		}
		statesVisited[g.edges[k.e].To] = true
		edgesTaken[k.e] = true
	}
	if !hasAccepting {
		return false, nil // removing vertices cannot create acceptance
	}
	switch kind {
	case Strong:
		var removeE []int32
		for ti, t := range g.edges {
			if statesVisited[t.From] && !edgesTaken[ti] {
				// Streett pair for t violated: E_t ∩ C ≠ ∅, F_t ∩ C = ∅.
				for _, v := range comp {
					if g.edges[g.verts[v].e].To == t.From {
						removeE = append(removeE, v)
					}
				}
			}
		}
		if len(removeE) == 0 {
			return true, nil
		}
		return false, removeE
	case Weak:
		if len(statesVisited) > 1 {
			return true, nil // nothing is continuously enabled
		}
		var only ts.State
		for s := range statesVisited {
			only = s
		}
		for ti, t := range g.edges {
			if t.From == only && !edgesTaken[ti] {
				return false, nil // continuously enabled yet never taken
			}
		}
		return true, nil
	}
	return false, nil
}

// findFairSCCWithin searches the subgraph induced by within, from its
// vertices roots in ascending order, for an SCC accepted by analyze,
// recursing on shrunken components as directed. A recursion searches
// only the shrunken component, and ctx is polled throughout.
func findFairSCCWithin(ctx context.Context, succ graph.Succ, within []bool, roots []int32, analyze func([]int32) (bool, []int32)) ([]int32, bool, error) {
	restricted := func(v int32) ([]int32, error) {
		var out []int32
		for _, w := range succ(v) {
			if within[w] {
				out = append(out, w)
			}
		}
		return out, nil
	}
	var (
		found []int32
		err   error
	)
	_, serr := graph.Search(ctx, roots, restricted, func(comp []int32) bool {
		// Members are within, so a self-loop in succ is one in the subgraph.
		if graph.IsTrivialSCC(comp, succ) {
			return false
		}
		ok, removeE := analyze(comp)
		if ok {
			found = append([]int32(nil), comp...)
			return true
		}
		if len(removeE) == 0 {
			return false
		}
		sub := make([]bool, len(within))
		for _, v := range comp {
			sub[v] = true
		}
		for _, v := range removeE {
			sub[v] = false
		}
		var subRoots []int32
		for _, v := range comp {
			if sub[v] {
				subRoots = append(subRoots, v)
			}
		}
		slices.Sort(subRoots)
		found, _, err = findFairSCCWithin(ctx, succ, sub, subRoots, analyze)
		return found != nil || err != nil
	})
	if serr != nil {
		return nil, false, serr
	}
	return found, found != nil, err
}

// stitchRun builds a fair lasso: a prefix from an initial vertex to the
// component, then a loop visiting every component vertex (covering all
// edge obligations and an accepting vertex) and closing.
func (g *product) stitchRun(comp []int32) Run {
	inComp := map[int32]bool{}
	for _, v := range comp {
		inComp[v] = true
	}
	n := len(g.verts)
	succC := func(v int32) []int32 {
		var out []int32
		for _, w := range g.adj[v] {
			if inComp[w] {
				out = append(out, w)
			}
		}
		return out
	}
	entry := comp[0]
	prefixPath := graph.ShortestPath(n, g.initVerts, g.succ, func(v int32) bool { return v == entry })
	var loop []int32
	cur := entry
	remaining := map[int32]bool{}
	for _, v := range comp {
		if v != entry {
			remaining[v] = true
		}
	}
	for len(remaining) > 0 {
		p := graph.ShortestPath(n, []int32{cur}, succC, func(v int32) bool { return remaining[v] })
		if len(p) < 2 {
			break // unreachable inside an SCC: cannot happen
		}
		for _, v := range p[1:] {
			loop = append(loop, v)
			delete(remaining, v)
		}
		cur = p[len(p)-1]
	}
	back := graph.ShortestPath(n, []int32{cur}, succC, func(v int32) bool { return v == entry })
	if len(back) > 1 {
		loop = append(loop, back[1:]...)
	} else if len(loop) == 0 {
		loop = append(loop, entry) // single vertex with a self-loop
	}
	toEdges := func(vs []int32) []ts.Edge {
		out := make([]ts.Edge, len(vs))
		for i, v := range vs {
			out[i] = g.edges[g.verts[v].e]
		}
		return out
	}
	return Run{Prefix: toEdges(prefixPath), Loop: toEdges(loop)}
}
