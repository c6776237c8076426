package oracle_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"relive/internal/core"
	"relive/internal/fairness"
	"relive/internal/gen"
	"relive/internal/hom"
	"relive/internal/ltl"
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
			rep, err := core.CheckAll(sys, p)
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
			rep, err := core.CheckFairAbstract(sys, h, kind, core.FromFormula(eta, ltl.Canonical(h.Dest())))
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
