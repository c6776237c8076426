package buchi

import (
	"context"
	"fmt"
	"sort"

	"relive/internal/alphabet"
	"relive/internal/interrupt"
)

// maxComplementStates bounds the state space of the rank-based
// complementation before it is abandoned. The construction is
// 2^O(n log n); this guard turns a runaway construction into an error
// instead of an out-of-memory condition.
const maxComplementStates = 2_000_000

// Complement returns a Büchi automaton for Σ^ω \ L_ω(b), using the
// Kupferman–Vardi rank-based construction with the Friedgut–Kupferman–
// Vardi rank bound 2(n−|F|):
//
// A level ranking assigns to each automaton state reached so far a rank
// ≤ 2(n−|F|) such that accepting states have even ranks and ranks never
// increase along transitions. The word is rejected by b iff the run DAG
// admits a ranking in which every path eventually gets stuck at an odd
// rank; the O-set (breakpoint construction) checks this by tracking the
// even-ranked states until the set empties, which must happen infinitely
// often.
//
// A non-nil ctx is polled once per successor configuration, so even a
// single configuration's exponential successor enumeration stops at a
// deadline; the context's error is returned. A nil ctx never cancels.
func (b *Buchi) Complement(ctx context.Context) (*Buchi, error) {
	n := b.NumStates()
	numAcc := 0
	for _, acc := range b.accepting {
		if acc {
			numAcc++
		}
	}
	maxRank := 2 * (n - numAcc)

	out := New(b.ab)
	type cfg struct {
		ranks string // byte-per-state: 0xFF for ⊥, otherwise rank
		oset  string // byte-per-state: 1 when in O
	}
	index := map[cfg]State{}
	var queue []cfg
	var queueRanks [][]int // decoded ranks, parallel to queue order

	intern := func(ranks []int, oset []bool) State {
		rb := make([]byte, n)
		ob := make([]byte, n)
		empty := true
		for i := 0; i < n; i++ {
			if ranks[i] < 0 {
				rb[i] = 0xFF
			} else {
				rb[i] = byte(ranks[i])
			}
			if oset[i] {
				ob[i] = 1
				empty = false
			}
		}
		k := cfg{ranks: string(rb), oset: string(ob)}
		if s, ok := index[k]; ok {
			return s
		}
		s := out.AddState(empty)
		index[k] = s
		queue = append(queue, k)
		queueRanks = append(queueRanks, append([]int(nil), ranks...))
		return s
	}

	// Initial configuration: initial states at the (even) maximal rank.
	initRanks := make([]int, n)
	for i := range initRanks {
		initRanks[i] = -1
	}
	for _, s := range b.initial {
		initRanks[s] = maxRank
	}
	out.SetInitial(intern(initRanks, make([]bool, n)))

	syms := b.ab.Symbols()
	var tick interrupt.Tick
	for qi := 0; qi < len(queue); qi++ {
		if out.NumStates() > maxComplementStates {
			return nil, fmt.Errorf("buchi: complementation exceeded %d states (source has %d states)",
				maxComplementStates, n)
		}
		k := queue[qi]
		ranks := queueRanks[qi]
		from := index[k]
		oset := make([]bool, n)
		for i := 0; i < n; i++ {
			if k.oset[i] == 1 {
				oset[i] = true
			}
		}
		for _, sym := range syms {
			err := b.rankSuccessors(ranks, oset, sym, func(full []int, nextO []bool) error {
				if err := tick.Poll(ctx); err != nil {
					return err
				}
				out.AddTransition(from, sym, intern(full, nextO))
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// rankSuccessors enumerates the legal successor configurations of the
// level ranking `ranks` (-1 for ⊥) with breakpoint set `oset` on sym,
// calling visit once per successor in a canonical order (sorted domain,
// rankings in enumerateRankings order) until visit returns an error,
// which it returns. The slices handed to visit are reused between
// calls; visit must copy what it retains. Both the eager
// Complement construction above and the lazy inclusion kernel
// (rankinclusion.go) enumerate through this helper, so the transition
// structure they see — and therefore the verdicts and witnesses
// downstream — is identical.
func (b *Buchi) rankSuccessors(ranks []int, oset []bool, sym alphabet.Symbol, visit func(full []int, nextO []bool) error) error {
	n := b.NumStates()
	oEmpty := true
	for _, in := range oset {
		if in {
			oEmpty = false
			break
		}
	}
	// Successor domain and per-state rank caps (ranks never increase
	// along transitions).
	caps := make([]int, n)
	for i := range caps {
		caps[i] = -1
	}
	domain := []int{}
	for q := 0; q < n; q++ {
		if ranks[q] < 0 {
			continue
		}
		for _, t := range b.trans[q][sym] {
			if caps[t] < 0 {
				caps[t] = ranks[q]
				domain = append(domain, int(t))
			} else if ranks[q] < caps[t] {
				caps[t] = ranks[q]
			}
		}
	}
	sort.Ints(domain)
	// Successors of the O-set (before rank filtering).
	oSucc := make([]bool, n)
	if !oEmpty {
		for q := 0; q < n; q++ {
			if !oset[q] {
				continue
			}
			for _, t := range b.trans[q][sym] {
				oSucc[t] = true
			}
		}
	}
	full := make([]int, n)
	nextO := make([]bool, n)
	return b.enumerateRankings(domain, caps, func(g []int) error {
		for i := 0; i < n; i++ {
			full[i] = -1
			nextO[i] = false
		}
		for _, t := range domain {
			full[t] = g[t]
			if g[t]%2 == 0 && (oEmpty || oSucc[t]) {
				nextO[t] = true
			}
		}
		return visit(full, nextO)
	})
}

// enumerateRankings calls visit for every assignment g of ranks to the
// domain states with 0 ≤ g[t] ≤ caps[t] and g[t] even for accepting
// states, stopping at (and returning) the first error visit returns.
// g is reused between calls; visit must not retain it.
func (b *Buchi) enumerateRankings(domain []int, caps []int, visit func(g []int) error) error {
	g := make([]int, b.NumStates())
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(domain) {
			return visit(g)
		}
		t := domain[i]
		step := 1
		if b.accepting[t] {
			step = 2 // even ranks only
		}
		for r := 0; r <= caps[t]; r += step {
			g[t] = r
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// UniversalAutomaton returns a Büchi automaton accepting Σ^ω.
func UniversalAutomaton(ab *alphabet.Alphabet) *Buchi {
	b := New(ab)
	s := b.AddState(true)
	for _, sym := range ab.Symbols() {
		b.AddTransition(s, sym, s)
	}
	b.SetInitial(s)
	return b
}
