package oracle_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/core"
	"relive/internal/fairness"
	"relive/internal/gen"
	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/oracle"
	"relive/internal/rex"
	"relive/internal/ts"
)

// reportDigest is the SHA-256 of the marshaled reports of the seeded
// corpus below, as computed by the subset-construction and
// eager-complement routes the inclusion checks were once dispatched to
// on inputs this small. Any changed verdict, witness or report field
// changes it. An engine change that keeps every answer byte-identical
// must leave it as it is; one that changes answers on purpose must say
// so and re-pin it.
const reportDigest = "1f2efbb89981ec100798c1fa0c4627d123a993f116d6f4d5a43f55647bdb9af3"

// TestReportDigestPinned pins the exact reports of core.CheckAll,
// core.VerifyViaAbstraction and core.CheckFairAbstract (strong and
// weak) over seeded gen.Systems of 3–40 states and 2–4 letters, plus
// the universality verdict of core.IsLivenessProperty on each property
// and the Büchi inclusion verdict of core.IsLimitClosed on a random
// Büchi automaton of 2–4 states. Abstraction runs only on systems of
// at most 10 states: its simplicity exploration grows exponentially
// with the system, and larger ones add run time without new routes.
func TestReportDigestPinned(t *testing.T) {
	rng := newRng(1414)
	d := sha256.New()
	var reports, witnesses, skipped int
	for i := 0; i < 600; i++ {
		ab := gen.Letters(2 + rng.Intn(3))
		sys := gen.System(rng, ab, 3+rng.Intn(38), 0.15+0.3*rng.Float64())

		f := gen.Formula(rng, ab.Names(), 1+rng.Intn(3))
		if ltl.TranslateBuchi(f, ltl.Canonical(ab)).NumStates() > translationCap {
			skipped++
		} else {
			p := core.FromFormula(f, nil)
			rep, err := core.CheckAllCellsCtx(nil, nil, core.NewPipelineCells(sys, p), 1)
			if err == nil && (len(rep.Counterexample) > 0 || len(rep.BadPrefix) > 0 || len(rep.Violation) > 0) {
				witnesses++
			}
			writeDigest(t, d, i, "all", rep, err)
			live, w, err := core.IsLivenessProperty(p, ab)
			writeDigest(t, d, i, "liveness-property", []any{live, w.String(ab)}, err)
			reports += 2
		}

		var h *hom.Hom
		if rng.Intn(2) == 0 {
			h = gen.IdentityHom(rng, ab, 0.4)
		} else {
			h = gen.Hom(rng, ab, 0.4)
		}
		eta := gen.Formula(rng, h.Dest().Names(), 1+rng.Intn(2))
		if ltl.TranslateBuchi(eta, ltl.Canonical(h.Dest())).NumStates() > translationCap {
			skipped++
			continue
		}
		if sys.NumStates() <= 10 {
			abs, err := core.VerifyViaAbstraction(sys, h, eta)
			var out any
			if err == nil {
				out = abstractionDigest(abs, h)
				if len(abs.AbstractBadPrefix) > 0 || len(abs.SimplicityWitness) > 0 {
					witnesses++
				}
			}
			writeDigest(t, d, i, "abstraction", out, err)
			reports++
		}
		for _, kind := range []fairness.Kind{fairness.Strong, fairness.Weak} {
			rep, err := core.CheckFairAbstractCells(nil, nil, core.NewSystemCells(sys), h, kind,
				core.FromFormula(eta, ltl.Canonical(h.Dest())))
			if err == nil && len(rep.ViolationLoop) > 0 {
				witnesses++
			}
			writeDigest(t, d, i, "fair-abstract", rep, err)
			reports++
		}

		lomega := gen.Buchi(rng, gen.Config{States: 2 + rng.Intn(3), Density: 0.6, AcceptRatio: 0.5}, ab)
		closed, l, err := core.IsLimitClosed(lomega)
		if err == nil && !closed {
			witnesses++
		}
		writeDigest(t, d, i, "limit-closed", []any{closed, l.String(ab)}, err)
		reports++
	}
	got := hex.EncodeToString(d.Sum(nil))
	t.Logf("%d reports (%d with witnesses), %d properties skipped over the translation cap", reports, witnesses, skipped)
	if got != reportDigest {
		t.Fatalf("report digest %s, want %s: some verdict or witness changed", got, reportDigest)
	}
}

// abstractionDigest renders an abstraction report's verdicts and
// witnesses as the abstraction endpoint does, plus the maximal-word
// witness.
func abstractionDigest(abs *core.AbstractionReport, h *hom.Hom) any {
	out := struct {
		Conclusion        string
		Simple            bool
		SimplicityWitness string
		AbstractHolds     bool
		AbstractBadPrefix string
		ExtendedMaximal   bool
		MaximalWitness    string
		AbstractStates    int
		Transformed       string
	}{
		Conclusion:        abs.Conclusion.String(),
		Simple:            abs.Simple,
		SimplicityWitness: abs.SimplicityWitness.String(h.Source()),
		AbstractHolds:     abs.AbstractHolds,
		AbstractBadPrefix: abs.AbstractBadPrefix.String(abs.Abstract.Alphabet()),
		ExtendedMaximal:   abs.ExtendedMaximal,
		MaximalWitness:    abs.MaximalWitness.String(h.Dest()),
		AbstractStates:    abs.Abstract.NumStates(),
	}
	if abs.Transformed != nil {
		out.Transformed = abs.Transformed.String()
	}
	return out
}

// writeDigest feeds one report, or the error that replaced it, into d.
func writeDigest(t *testing.T, d hash.Hash, i int, check string, rep any, err error) {
	t.Helper()
	if err != nil {
		fmt.Fprintf(d, "%d %s error %v\n", i, check, err)
		return
	}
	body, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("case %d %s: marshal: %v", i, check, err)
	}
	fmt.Fprintf(d, "%d %s %s\n", i, check, body)
}

// sccDigest is the SHA-256 of the SCC-dependent outputs of the seeded
// corpus of TestSCCDigestPinned. It is pinned separately from
// reportDigest: the two corpora cover different routes, and a change
// to one must not be hidden by re-pinning the other.
const sccDigest = "c626c86f13017f84435812dd87f4a6c3210214f3d501482f041d44209feebd41"

// sccOmegaTexts are small ω-regex properties for the CheckAll part of
// TestSCCDigestPinned.
var sccOmegaTexts = []string{
	"( a ) ^w",
	"( a b ) ^w",
	"a * ( b ) ^w",
	"( a | b ) ( a ) ^w",
}

// TestSCCDigestPinned pins the outputs whose exact bytes depend on the
// order in which strongly connected components are found and on the
// depth-first tree that finds them, over a seeded corpus of gen.Buchi
// automata that are not all-accepting and gen.Systems of 3–12 states:
// AcceptingLasso and Reduce (states and transitions), IntersectLasso on
// two-track operands, IncludedRankCtx with a left operand that is not
// all-accepting, strong and weak fairness.ExistsFairRun witness runs,
// FairImplementation.BottomSCCsContainMarks on random marks and on
// synthesized implementations, and core.CheckAll on automaton and
// ω-regex properties.
func TestSCCDigestPinned(t *testing.T) {
	rng := newRng(1515)
	d := sha256.New()
	notAllAccepting := func(ab *alphabet.Alphabet, states int) *buchi.Buchi {
		for {
			b := gen.Buchi(rng, gen.Config{States: states, Density: 0.35 + 0.3*rng.Float64(), AcceptRatio: 0.3}, ab)
			for s := 0; s < b.NumStates(); s++ {
				if !b.Accepting(buchi.State(s)) {
					return b
				}
			}
		}
	}
	var entries, witnesses int
	for i := 0; i < 800; i++ {
		ab := gen.Letters(2 + rng.Intn(2))
		a, c := notAllAccepting(ab, 2+rng.Intn(6)), notAllAccepting(ab, 2+rng.Intn(3))

		l, ok := a.AcceptingLasso()
		if ok {
			witnesses++
		}
		// The loop is left out: at the commit this digest was pinned at,
		// AcceptingLasso took its cycle's first letter in map order.
		writeDigest(t, d, i, "accepting-lasso", []any{ok, l.Prefix.String(ab), oracle.AcceptsLasso(a, l)}, nil)
		writeDigest(t, d, i, "reduce", a.Reduce().String(), nil)
		l, ok = buchi.IntersectLasso(a, c)
		if ok {
			witnesses++
		}
		writeDigest(t, d, i, "intersect-lasso", []any{ok, l.String(ab)}, nil)
		incl, l, err := buchi.IncludedRankCtx(nil, a, c)
		if err == nil && !incl {
			witnesses++
		}
		writeDigest(t, d, i, "included-rank", []any{incl, l.String(ab)}, err)
		entries += 4

		sys := gen.System(rng, ab, 3+rng.Intn(10), 0.2+0.3*rng.Float64())
		for _, kind := range []fairness.Kind{fairness.Strong, fairness.Weak} {
			run, found, err := fairness.ExistsFairRun(sys, c, kind)
			if found {
				witnesses++
			}
			writeDigest(t, d, i, "fair-run", []any{found, run}, err)
			entries++
		}
		marked := map[ts.State]bool{}
		for s := 0; s < sys.NumStates(); s++ {
			if rng.Intn(3) == 0 {
				marked[ts.State(s)] = true
			}
		}
		fi := &core.FairImplementation{System: sys, Marked: marked}
		writeDigest(t, d, i, "bottom-marks", fi.BottomSCCsContainMarks(), nil)
		entries++

		if i%2 == 0 {
			continue
		}
		var p core.Property
		if i%4 == 1 {
			p = core.FromAutomaton(notAllAccepting(ab, 2+rng.Intn(2)))
		} else {
			o, err := rex.ParseOmega(ab, sccOmegaTexts[rng.Intn(len(sccOmegaTexts))])
			if err != nil {
				t.Fatal(err)
			}
			b, err := o.Buchi()
			if err != nil {
				t.Fatal(err)
			}
			p = core.FromAutomaton(b)
		}
		rep, err := core.CheckAllCellsCtx(nil, nil, core.NewPipelineCells(sys, p), 1)
		writeDigest(t, d, i, "all", rep, err)
		entries++
		if impl, err := core.SynthesizeFairImplementation(nil, sys, p); err == nil {
			writeDigest(t, d, i, "synthesized-bottom-marks", []any{impl.System.NumStates(), impl.BottomSCCsContainMarks()}, nil)
			entries++
		}
	}
	got := hex.EncodeToString(d.Sum(nil))
	t.Logf("%d entries (%d with witnesses)", entries, witnesses)
	if got != sccDigest {
		t.Fatalf("SCC digest %s, want %s: some verdict or witness changed", got, sccDigest)
	}
}
