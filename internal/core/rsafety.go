package core

import (
	"context"
	"fmt"

	"relive/internal/obs"
	"relive/internal/ts"
	"relive/internal/word"
)

// SafetyResult is the outcome of a relative-safety check. When the
// property is not a relative safety property, Violation is an ultimately
// periodic behavior that does not satisfy the property although every
// one of its prefixes can be extended to a behavior that does (it lies
// in the limit of pre(L_ω ∩ P)).
type SafetyResult struct {
	Holds     bool
	Violation word.Lasso
}

// RelativeSafetyCellsCtx decides whether p is a relative safety
// property of the system's behaviors (Definition 4.2), via the
// characterization of Lemma 4.4:
//
//	L_ω ∩ lim(pre(L_ω ∩ P)) ⊆ P.
//
// The left-hand side is the Büchi product of the behaviors with the
// limit of the prefix language of L_ω ∩ P; inclusion in P is checked by
// intersecting with ¬P (for formulas, the translated negation; for
// automata, the rank-based complement).
//
// The artifacts come from pc (NewPipelineCells(sys, p) for a one-off
// check). Every phase — the pre(L∩P) product, its limit closure, the
// negation automaton, and the final emptiness check of Lemma 4.4 — is
// reported to rec. ctx is polled inside the loops and the returned
// error wraps ctx.Err() when cancelled. A nil ctx never cancels and a
// nil rec records nothing.
func RelativeSafetyCellsCtx(ctx context.Context, rec obs.Recorder, pc *PipelineCells) (SafetyResult, error) {
	if err := ctxErr(ctx); err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	return relativeSafetyPipe(pc.view(ctx, rec))
}

// relativeSafetyPipe is the Lemma 4.4 check over a (possibly shared)
// pipeline. The final inclusion is decided by on-the-fly emptiness of
// (L ∩ lim(pre(L∩P))) ∩ ¬P instead of materializing that product.
func relativeSafetyPipe(pl *pipeline) (SafetyResult, error) {
	sp := obs.StartSpan(pl.rec, "core.RelativeSafety").
		Tag("paper", "Definition 4.2 via Lemma 4.4")
	defer sp.End()
	trimmed, behaviors, err := pl.limits()
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	if trimmed == nil {
		// No infinite behavior: every x ∈ L_ω = ∅ vacuously satisfies
		// Definition 4.2.
		return SafetyResult{Holds: true}, nil
	}
	preLP, err := pl.preProduct()
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	if preLP.NumStates() == 0 {
		// L_ω ∩ P = ∅: its prefix limit is empty and inclusion is trivial.
		return SafetyResult{Holds: true}, nil
	}
	ops := pl.ops
	limPre, err := ops.LimitOfAllAccepting(preLP)
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	lhs, err := ops.IntersectCtx(behaviors, limPre)
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	notP, err := pl.negation()
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	isp := obs.StartSpan(pl.rec, "L ∩ lim(pre(L∩P)) ⊆ P").
		Tag("paper", "Lemma 4.4: L ∩ lim(pre(L∩P)) ⊆ P").
		Int("lhs_states", int64(lhs.NumStates())).
		Int("negation_states", int64(notP.NumStates()))
	l, found, err := ops.IntersectLassoCtx(lhs, notP)
	if err != nil {
		isp.Tag("aborted", "context")
		isp.End()
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	isp.End()
	if found {
		return SafetyResult{Holds: false, Violation: l}, nil
	}
	return SafetyResult{Holds: true}, nil
}

// SatisfactionResult is the outcome of a plain satisfaction check
// L_ω ⊆ P; Counterexample is a behavior outside P when it fails.
type SatisfactionResult struct {
	Holds          bool
	Counterexample word.Lasso
}

// SatisfiesCellsCtx decides L_ω ⊆ P (Definition 3.2) directly, by
// emptiness of behaviors ∩ ¬P. Theorem 4.7 states this is equivalent to
// p being both a relative liveness and a relative safety property; the
// equivalence is exercised by the test suite.
//
// The artifacts come from pc (NewPipelineCells(sys, p) for a one-off
// check); the negation construction and the emptiness check of L ∩ ¬P
// are reported to rec. ctx is polled inside the loops and the returned
// error wraps ctx.Err() when cancelled. A nil ctx never cancels and a
// nil rec records nothing.
func SatisfiesCellsCtx(ctx context.Context, rec obs.Recorder, pc *PipelineCells) (SatisfactionResult, error) {
	if err := ctxErr(ctx); err != nil {
		return SatisfactionResult{}, fmt.Errorf("satisfaction: %w", err)
	}
	return satisfiesPipe(pc.view(ctx, rec))
}

// satisfiesPipe is the Definition 3.2 check over a (possibly shared)
// pipeline, deciding emptiness of L ∩ ¬P on the fly.
func satisfiesPipe(pl *pipeline) (SatisfactionResult, error) {
	sp := obs.StartSpan(pl.rec, "core.Satisfies").
		Tag("paper", "Definition 3.2: L ⊆ P")
	defer sp.End()
	trimmed, behaviors, err := pl.limits()
	if err != nil {
		return SatisfactionResult{}, fmt.Errorf("satisfaction: %w", err)
	}
	if trimmed == nil {
		return SatisfactionResult{Holds: true}, nil
	}
	notP, err := pl.negation()
	if err != nil {
		return SatisfactionResult{}, fmt.Errorf("satisfaction: %w", err)
	}
	isp := obs.StartSpan(pl.rec, "L ∩ ¬P = ∅").
		Int("behavior_states", int64(behaviors.NumStates())).
		Int("negation_states", int64(notP.NumStates()))
	l, found, err := pl.ops.IntersectLassoCtx(behaviors, notP)
	if err != nil {
		isp.Tag("aborted", "context")
		isp.End()
		return SatisfactionResult{}, fmt.Errorf("satisfaction: %w", err)
	}
	isp.End()
	if found {
		return SatisfactionResult{Holds: false, Counterexample: l}, nil
	}
	return SatisfactionResult{Holds: true}, nil
}

// SatisfiesViaConjunction decides satisfaction through Theorem 4.7: the
// property holds iff it is both a relative liveness and a relative
// safety property. Exposed as an alternative algorithm for
// cross-validation and ablation benchmarks.
func SatisfiesViaConjunction(sys *ts.System, p Property) (bool, error) {
	pc := NewPipelineCells(sys, p)
	rl, err := RelativeLivenessCellsCtx(nil, nil, pc)
	if err != nil {
		return false, err
	}
	if !rl.Holds {
		return false, nil
	}
	rs, err := RelativeSafetyCellsCtx(nil, nil, pc)
	if err != nil {
		return false, err
	}
	return rs.Holds, nil
}
