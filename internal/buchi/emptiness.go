package buchi

import (
	"context"

	"relive/internal/alphabet"
	"relive/internal/graph"
	"relive/internal/word"
)

// This file implements on-the-fly emptiness of the intersection
// L_ω(a) ∩ L_ω(c): the two-track product is explored lazily while
// graph.Search runs Tarjan's SCC algorithm on top of it, stopping at the
// first nontrivial strongly connected component that contains an
// accepting product state. Call sites that previously materialized
// Intersect(a, c) solely to ask IsEmpty (the decision procedures'
// dominant pattern) avoid building — and then reducing — product states
// the search never visits, and stop early on non-empty products. The
// right operand is either a Büchi automaton or the lazy rank-based
// complement of one (rankinclusion.go), so inclusion runs on the same
// product and search.
//
// Witness extraction reuses the exploration: when the accepting SCC
// pops, all of its members are fully expanded, so the lasso prefix is
// the DFS tree path to an accepting member and the cycle is a BFS
// inside the component.

// pkey identifies a product state: a pair of operand states plus the
// track bit of the standard two-track Büchi intersection. In "plain"
// mode (acceptance = both accepting) the track stays 0.
type pkey struct {
	x, y  int32
	track uint8
}

// operand is the right-hand side of the lazy product.
type operand interface {
	// initial returns the states the product starts from.
	initial() []int32
	accepting(y int32) bool
	// successors returns the successors of y on sym, shared.
	successors(y int32, sym alphabet.Symbol) ([]int32, error)
}

// automatonOperand is a Büchi automaton as a right operand, started
// from init instead of its own initial states.
type automatonOperand struct {
	b    *Buchi
	c    *compiled
	init []State
}

func (o *automatonOperand) initial() []int32 {
	out := make([]int32, len(o.init))
	for i, s := range o.init {
		out[i] = int32(s)
	}
	return out
}

func (o *automatonOperand) accepting(y int32) bool { return o.b.accepting[y] }

func (o *automatonOperand) successors(y int32, sym alphabet.Symbol) ([]int32, error) {
	return o.c.row(State(y), sym), nil
}

// product is the lazy product automaton of a with a right operand:
// states are interned on first visit and their outgoing edges computed
// once, from a's compiled (CSR) form and the operand's successors.
type product struct {
	a     *Buchi
	ca    *compiled
	right operand
	syms  int
	plain bool

	index  map[pkey]int32
	states []pkey
	acc    []bool // product-state acceptance
	// Expanded edges live in two flat arenas, in expansion order: the
	// successors of v, in symbol order, are dst[lo[v]:hi[v]], labelled
	// sym[lo[v]:hi[v]]. One arena instead of a slice per state keeps
	// the allocations per expansion amortized O(1).
	dst    []int32
	sym    []alphabet.Symbol
	lo, hi []int32
}

func newProduct(a *Buchi, right operand, plain bool) *product {
	return &product{
		a: a, ca: a.compiled(), right: right,
		syms:  a.ab.Size(),
		plain: plain,
		index: make(map[pkey]int32),
	}
}

func (p *product) intern(k pkey) int32 {
	if id, ok := p.index[k]; ok {
		return id
	}
	id := int32(len(p.states))
	p.index[k] = id
	p.states = append(p.states, k)
	if p.plain {
		p.acc = append(p.acc, p.a.accepting[k.x] && p.right.accepting(k.y))
	} else {
		p.acc = append(p.acc, k.track == 1 && p.right.accepting(k.y))
	}
	p.lo = append(p.lo, 0)
	p.hi = append(p.hi, 0)
	return id
}

// roots interns the product's initial states: ainit × right.initial().
func (p *product) roots(ainit []State) []int32 {
	ys := p.right.initial()
	var out []int32
	for _, x := range ainit {
		for _, y := range ys {
			out = append(out, p.intern(pkey{int32(x), y, 0}))
		}
	}
	return out
}

// expand computes the outgoing edges of product state id.
func (p *product) expand(id int32) ([]int32, error) {
	k := p.states[id]
	track := k.track
	if !p.plain {
		if track == 0 && p.a.accepting[k.x] {
			track = 1
		} else if track == 1 && p.right.accepting(k.y) {
			track = 0
		}
	}
	lo := int32(len(p.dst))
	for sym := alphabet.Symbol(1); int(sym) <= p.syms; sym++ {
		xs := p.ca.row(State(k.x), sym)
		if len(xs) == 0 {
			continue
		}
		ys, err := p.right.successors(k.y, sym)
		if err != nil {
			return nil, err
		}
		for _, x := range xs {
			for _, y := range ys {
				p.dst = append(p.dst, p.intern(pkey{x, y, track}))
				p.sym = append(p.sym, sym)
			}
		}
	}
	hi := int32(len(p.dst))
	p.lo[id], p.hi[id] = lo, hi
	// A later append may move the arena; the slice handed out keeps
	// pointing at this expansion's (unchanged) edges.
	return p.dst[lo:hi:hi], nil
}

// successorsOf returns the successors of an expanded state v.
func (p *product) successorsOf(v int32) []int32 { return p.dst[p.lo[v]:p.hi[v]] }

// labelsOf returns the symbols of v's edges, parallel to successorsOf.
func (p *product) labelsOf(v int32) []alphabet.Symbol { return p.sym[p.lo[v]:p.hi[v]] }

// lasso searches the product from ainit × right.initial() and returns an
// accepting lasso through the first nontrivial SCC that contains an
// accepting state, or ok=false when there is none. A non-nil ctx is
// polled inside the search; its error aborts the exploration.
func (p *product) lasso(ctx context.Context, ainit []State) (word.Lasso, bool, error) {
	var found []int32
	tree, err := graph.Search(ctx, p.roots(ainit), p.expand, func(comp []int32) bool {
		if !graph.IsTrivialSCC(comp, p.successorsOf) {
			for _, v := range comp {
				if p.acc[v] {
					found = append([]int32(nil), comp...)
					return true
				}
			}
		}
		return false
	})
	if err != nil || found == nil {
		return word.Lasso{}, false, err
	}
	return p.witness(tree, found), true, nil
}

// witness builds an accepting lasso from a found component: the DFS
// tree path to its first accepting member is the prefix, a BFS inside
// the (fully expanded, strongly connected) component yields the cycle.
func (p *product) witness(tree graph.Tree, comp []int32) word.Lasso {
	target := comp[0]
	for _, v := range comp {
		if p.acc[v] {
			target = v
			break
		}
	}
	var prefix word.Word
	for v := target; tree.Parent[v] != -1; v = tree.Parent[v] {
		prefix = append(prefix, p.labelsOf(tree.Parent[v])[tree.Edge[v]])
	}
	for l, r := 0, len(prefix)-1; l < r; l, r = l+1, r-1 {
		prefix[l], prefix[r] = prefix[r], prefix[l]
	}
	return word.MustLasso(prefix, p.cycleWord(target, comp))
}

// cycleWord returns the label word of a shortest nonempty cycle
// through target inside its strongly connected component.
func (p *product) cycleWord(target int32, comp []int32) word.Word {
	inComp := make(map[int32]bool, len(comp))
	for _, v := range comp {
		inComp[v] = true
	}
	for i, w := range p.successorsOf(target) {
		if w == target {
			return word.Word{p.labelsOf(target)[i]}
		}
	}
	type centry struct {
		v      int32
		parent int32
		sym    alphabet.Symbol
	}
	var q []centry
	seen := make(map[int32]bool, len(comp))
	for i, w := range p.successorsOf(target) {
		if inComp[w] && !seen[w] {
			seen[w] = true
			q = append(q, centry{v: w, parent: -1, sym: p.labelsOf(target)[i]})
		}
	}
	for qi := 0; qi < len(q); qi++ {
		cur := q[qi]
		for i, w := range p.successorsOf(cur.v) {
			sym := p.labelsOf(cur.v)[i]
			if w == target {
				cycle := word.Word{sym}
				for j := int32(qi); j != -1; j = q[j].parent {
					cycle = append(cycle, q[j].sym)
				}
				for l, r := 0, len(cycle)-1; l < r; l, r = l+1, r-1 {
					cycle[l], cycle[r] = cycle[r], cycle[l]
				}
				return cycle
			}
			if inComp[w] && !seen[w] {
				seen[w] = true
				q = append(q, centry{v: w, parent: int32(qi), sym: sym})
			}
		}
	}
	// Unreachable: a nontrivial SCC has a cycle through every member.
	panic("buchi: no cycle through SCC member")
}

// intersectLasso is the shared engine behind the exported emptiness
// entry points. ainit/cinit override the operands' initial states (nil
// means use their own), which lets the decision procedures ask about
// restarted automata without cloning them. It returns the number of
// product states explored for instrumentation. A non-nil ctx is polled
// inside the search; its error aborts the exploration.
func intersectLasso(ctx context.Context, a, c *Buchi, ainit, cinit []State) (word.Lasso, int, bool, error) {
	if ainit == nil {
		ainit = a.initial
	}
	if cinit == nil {
		cinit = c.initial
	}
	if len(ainit) == 0 || len(cinit) == 0 || a.NumStates() == 0 || c.NumStates() == 0 {
		return word.Lasso{}, 0, false, nil
	}
	p := newProduct(a, &automatonOperand{b: c, c: c.compiled(), init: cinit}, a.allAccepting() || c.allAccepting())
	l, ok, err := p.lasso(ctx, ainit)
	return l, len(p.states), ok, err
}

// IntersectLasso returns an ultimately periodic word accepted by both a
// and c, or ok=false when L_ω(a) ∩ L_ω(c) = ∅. It is equivalent to
// Intersect(a, c).AcceptingLasso() but explores the product on the fly
// and stops at the first accepting cycle.
func IntersectLasso(a, c *Buchi) (word.Lasso, bool) {
	l, _, ok, _ := intersectLasso(nil, a, c, nil, nil)
	return l, ok
}

// IntersectLassoCtx is IntersectLasso with a cooperative cancellation
// checkpoint inside the product exploration. A nil ctx never cancels.
func IntersectLassoCtx(ctx context.Context, a, c *Buchi) (word.Lasso, bool, error) {
	l, _, ok, err := intersectLasso(ctx, a, c, nil, nil)
	return l, ok, err
}

// IntersectEmpty reports whether L_ω(a) ∩ L_ω(c) is empty, without
// materializing the product.
func IntersectEmpty(a, c *Buchi) bool {
	_, _, ok, _ := intersectLasso(nil, a, c, nil, nil)
	return !ok
}

// IntersectEmptyCtx is IntersectEmpty with a cooperative cancellation
// checkpoint inside the product exploration. A nil ctx never cancels.
func IntersectEmptyCtx(ctx context.Context, a, c *Buchi) (bool, error) {
	_, _, ok, err := intersectLasso(ctx, a, c, nil, nil)
	return !ok, err
}

// IntersectEmptyFrom is IntersectEmpty with the exploration started
// from the given operand states instead of the automata's initial
// states. Decision procedures that ask "is the intersection empty when
// both automata restart from configuration (p, q)?" use this in place
// of cloning and re-rooting the operands per configuration.
func IntersectEmptyFrom(a, c *Buchi, ainit, cinit []State) bool {
	_, _, ok, _ := intersectLasso(nil, a, c, ainit, cinit)
	return !ok
}

// IntersectLassoFrom is IntersectLasso started from the given operand
// states (nil means the automaton's own initial states).
func IntersectLassoFrom(a, c *Buchi, ainit, cinit []State) (word.Lasso, bool) {
	l, _, ok, _ := intersectLasso(nil, a, c, ainit, cinit)
	return l, ok
}
