package buchi

import (
	"math/rand"
	"testing"

	"relive/internal/genbase"
	"relive/internal/word"
)

// Differential tests for the lazy rank-based inclusion kernel: on
// randomized Büchi pairs the lazy route must agree with the eager
// Complement-then-IntersectLasso reference on every verdict, and every
// counterexample lasso must be a genuine member of L_ω(a) \ L_ω(c).

func TestIncludedRankMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ab := genbase.Letters(2)
	for trial := 0; trial < 100; trial++ {
		a := randomBuchi(rng, ab, 1+rng.Intn(3))
		c := randomBuchi(rng, ab, 1+rng.Intn(3))
		okE, lE, errE := Included(a, c)
		okL, lL, errL := IncludedRankCtx(nil, a, c)
		if (errE == nil) != (errL == nil) {
			t.Fatalf("trial %d: error divergence: eager %v, lazy %v", trial, errE, errL)
		}
		if errE != nil {
			continue
		}
		if okE != okL {
			t.Fatalf("trial %d: verdict divergence: eager %v, lazy %v\na=%v\nc=%v", trial, okE, okL, a, c)
		}
		if okE {
			continue
		}
		if !a.AcceptsLasso(lL) || c.AcceptsLasso(lL) {
			t.Fatalf("trial %d: lazy witness %v not in L(a)\\L(c)\na=%v\nc=%v", trial, lL.String(ab), a, c)
		}
		if !a.AcceptsLasso(lE) || c.AcceptsLasso(lE) {
			t.Fatalf("trial %d: eager witness %v not in L(a)\\L(c)", trial, lE.String(ab))
		}
		// With an all-accepting left operand both routes run the plain
		// product over structurally identical complements, so not just
		// membership but the witness itself must match (the shape the
		// relative-liveness pipeline's IsLimitClosed check relies on).
		if a.allAccepting() && !lE.Equal(lL) {
			t.Fatalf("trial %d: plain-mode witness divergence: eager %v, lazy %v",
				trial, lE.String(ab), lL.String(ab))
		}
	}
}

func TestIncludedRankAllAcceptingLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ab := genbase.Letters(2)
	for trial := 0; trial < 60; trial++ {
		a := randomBuchi(rng, ab, 1+rng.Intn(3))
		for i := 0; i < a.NumStates(); i++ {
			a.SetAccepting(State(i), true)
		}
		c := randomBuchi(rng, ab, 1+rng.Intn(3))
		okE, lE, errE := Included(a, c)
		okL, lL, errL := IncludedRankCtx(nil, a, c)
		if (errE == nil) != (errL == nil) || errE != nil {
			continue
		}
		if okE != okL {
			t.Fatalf("trial %d: verdict divergence: eager %v, lazy %v", trial, okE, okL)
		}
		if !okE && !lE.Equal(lL) {
			t.Fatalf("trial %d: witness divergence: eager %v, lazy %v", trial, lE.String(ab), lL.String(ab))
		}
	}
}

func TestUniversalKernelAgainstComplementEmptiness(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ab := genbase.Letters(2)
	for trial := 0; trial < 100; trial++ {
		c := randomBuchi(rng, ab, 1+rng.Intn(3))
		comp, err := c.Complement(nil)
		if err != nil {
			continue
		}
		_, nonEmpty := comp.AcceptingLasso()
		wantUniversal := !nonEmpty
		sigma := UniversalAutomaton(ab)
		eagerOK, eagerL, eagerErr := Included(sigma, c)
		lazyOK, lazyL, lazyErr := IncludedRankCtx(nil, sigma, c)
		for _, r := range []struct {
			route string
			got   bool
			l     word.Lasso
			err   error
		}{{"eager", eagerOK, eagerL, eagerErr}, {"lazy", lazyOK, lazyL, lazyErr}} {
			if r.err != nil {
				t.Fatalf("trial %d: %s route: %v", trial, r.route, r.err)
			}
			if r.got != wantUniversal {
				t.Fatalf("trial %d: %s route: universal=%v, complement emptiness says %v\nc=%v",
					trial, r.route, r.got, wantUniversal, c)
			}
			if !r.got && c.AcceptsLasso(r.l) {
				t.Fatalf("trial %d: %s route: rejected-lasso witness %v is accepted", trial, r.route, r.l.String(ab))
			}
		}
	}
}
