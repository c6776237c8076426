package buchi

import (
	"context"

	"relive/internal/interrupt"
	"relive/internal/nfa"
)

// PreProductNFACtx computes pre(L_ω(a) ∩ L_ω(c)) as an NFA in one fused
// pass, replacing the materialized chain
//
//	IntersectCtx(a, c) → PrefixNFA (= Reduce → ToNFA → MarkAllAccepting) → Trim
//
// that built and discarded four intermediate automata. The product is
// explored once into flat edge lists, the reduction (accepting-cycle
// SCCs + co-reachability) runs on that graph directly, and the
// surviving states are emitted straight into the output NFA.
//
// The output is bit-identical to the chain above — same state
// numbering, same per-(state, symbol) transition rows, same initial
// order — because the product interning replicates IntersectCtx's BFS
// discovery order, the reduction keeps survivors in ascending product
// order exactly as Reduce does, and the chain's trailing Trim is an
// identity renumbering on this shape (every PrefixNFA state is
// reachable and accepting, hence trivially co-reachable). Downstream
// inclusion checks therefore see the same automaton either way; the
// equivalence tests in preproduct_test.go pin the construction, not
// just the language. It returns the number of product states explored,
// for instrumentation.
func PreProductNFACtx(ctx context.Context, a, c *Buchi) (*nfa.NFA, int, error) {
	// Mirror IntersectCtx: plain product when either operand accepts
	// with every state (the pipeline's left operand, a lim(L) automaton,
	// always does), the two-track product otherwise. Expanding the lazy
	// product in id order is IntersectCtx's BFS.
	p := newProduct(a, &automatonOperand{b: c, c: c.compiled(), init: c.initial}, a.allAccepting() || c.allAccepting())
	inits := p.roots(a.initial)
	var tick interrupt.Tick
	for id := int32(0); int(id) < len(p.states); id++ {
		if err := tick.Poll(ctx); err != nil {
			return nil, len(p.states), err
		}
		if _, err := p.expand(id); err != nil {
			return nil, len(p.states), err
		}
	}

	n := len(p.states)
	out := nfa.New(a.ab)
	if n == 0 {
		return out, n, nil
	}

	// The reduction of Reduce: keep states that can reach an accepting
	// cycle. (Reachability from the initial states holds for every
	// product state by construction.)
	live := liveStates(n, p.successorsOf, p.acc)

	// Emit survivors in ascending product order (Reduce's numbering),
	// every state accepting (MarkAllAccepting): the finite-path language
	// from the initial states is exactly pre(L_ω(a) ∩ L_ω(c)).
	keep := make([]nfa.State, n)
	for i := range keep {
		keep[i] = -1
	}
	for i := 0; i < n; i++ {
		if live[i] {
			keep[i] = out.AddState(true)
		}
	}
	for i := 0; i < n; i++ {
		if keep[i] < 0 {
			continue
		}
		labels := p.labelsOf(int32(i))
		for j, w := range p.successorsOf(int32(i)) {
			if keep[w] >= 0 {
				out.AddTransition(keep[i], labels[j], keep[w])
			}
		}
	}
	for _, id := range inits {
		if keep[id] >= 0 {
			out.SetInitial(keep[id])
		}
	}
	return out, n, nil
}
