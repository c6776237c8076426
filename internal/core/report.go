package core

import (
	"context"
	"fmt"
	"sync"

	"relive/internal/obs"
	"relive/internal/ts"
)

// Report bundles the three verdicts of Section 4 for one system and
// property, with witnesses rendered as action names. It marshals to
// JSON for tooling (rlcheck -json).
type Report struct {
	Property string `json:"property"`
	States   int    `json:"states"`

	Satisfied        bool     `json:"satisfied"`
	Counterexample   []string `json:"counterexample,omitempty"`
	CounterexampleLp []string `json:"counterexampleLoop,omitempty"`

	RelativeLiveness bool     `json:"relativeLiveness"`
	BadPrefix        []string `json:"badPrefix,omitempty"`

	RelativeSafety bool     `json:"relativeSafety"`
	Violation      []string `json:"violation,omitempty"`
	ViolationLoop  []string `json:"violationLoop,omitempty"`

	// Statistical is set only when the report came from the sampling
	// engine (the statistical-fallback path): the three verdict booleans
	// then all carry the single sampled fair verdict — a
	// confidence-interval answer, never an exact one — and this field
	// holds the full sampled evidence. See StatisticalReport.
	Statistical *StatisticalReport `json:"statistical,omitempty"`
}

// CheckAllCellsCtx runs satisfaction, relative liveness and relative
// safety over one artifact set and cross-checks Theorem 4.7
// (satisfied ⟺ RL ∧ RS) as an internal consistency assertion. All three
// procedures are reported to rec under one "core.CheckAll" root span
// and share pc's single-flight cells, so the behavior automaton, the
// property automaton and its negation, and the pre(L∩P) product are
// each built once instead of once per procedure. Callers holding a
// (sys, p) pair pass NewPipelineCells(sys, p).
//
// workers > 1 runs the three verdicts concurrently, one goroutine per
// verdict: whichever goroutine needs an artifact first builds it, the
// others wait for it. Verdicts and witnesses are identical to the
// serial run — every artifact and every witness search is
// deterministic, and single-flight construction makes the artifact
// values independent of goroutine arrival order. Each verdict then runs
// under a forked per-worker recorder (obs.ForkWorker) whose top-level
// spans carry a "worker" tag and parent under the root.
//
// ctx is polled by the reachability, product, subset-construction and
// emptiness loops; on cancellation the returned error wraps ctx.Err().
// A nil ctx never cancels and a nil rec records nothing.
func CheckAllCellsCtx(ctx context.Context, rec obs.Recorder, pc *PipelineCells, workers int) (*Report, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: check all: %w", err)
	}
	sp := obs.StartSpan(rec, "core.CheckAll").
		Tag("paper", "Section 4 (cross-checked via Theorem 4.7)")
	if workers > 1 {
		sp.Tag("mode", "parallel")
	}
	defer sp.End()
	if workers <= 1 {
		return checkAllPipe(pc.view(ctx, rec))
	}
	return checkAllPar(ctx, rec, pc, sp)
}

// checkAllPar fans the three verdicts out onto one goroutine each over
// pc's cells, attributing spans per worker.
func checkAllPar(ctx context.Context, rec obs.Recorder, pc *PipelineCells, sp obs.Span) (*Report, error) {
	var (
		wg   sync.WaitGroup
		sat  SatisfactionResult
		rl   LivenessResult
		rs   SafetyResult
		errs [3]error
	)
	wg.Add(3)
	go func() {
		defer wg.Done()
		sat, errs[0] = satisfiesPipe(pc.view(ctx, obs.ForkWorker(rec, "satisfies", sp.ID())))
	}()
	go func() {
		defer wg.Done()
		rl, errs[1] = relativeLivenessPipe(pc.view(ctx, obs.ForkWorker(rec, "rel-liveness", sp.ID())))
	}()
	go func() {
		defer wg.Done()
		rs, errs[2] = relativeSafetyPipe(pc.view(ctx, obs.ForkWorker(rec, "rel-safety", sp.ID())))
	}()
	wg.Wait()
	// A genuine verdict error outranks a cancellation: when one verdict
	// fails deterministically while the cancellation tears the others
	// down, report the deterministic failure.
	for _, err := range errs {
		if err != nil && !isContextError(err) {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return assembleReport(pc.sys, pc.prop.p, sat, rl, rs)
}

// checkAllPipe runs the three verdicts serially over pl and assembles
// the report. CheckAllCellsCtx and the portfolio workers share it.
func checkAllPipe(pl *pipeline) (*Report, error) {
	sat, err := satisfiesPipe(pl)
	if err != nil {
		return nil, err
	}
	rl, err := relativeLivenessPipe(pl)
	if err != nil {
		return nil, err
	}
	rs, err := relativeSafetyPipe(pl)
	if err != nil {
		return nil, err
	}
	return assembleReport(pl.cells.sys, pl.cells.prop.p, sat, rl, rs)
}

// assembleReport cross-checks Theorem 4.7 and renders the three results
// as one Report with action-name witnesses.
func assembleReport(sys *ts.System, p Property, sat SatisfactionResult, rl LivenessResult, rs SafetyResult) (*Report, error) {
	if sat.Holds != (rl.Holds && rs.Holds) {
		return nil, fmt.Errorf(
			"core: internal inconsistency (Theorem 4.7): satisfied=%v, RL=%v, RS=%v",
			sat.Holds, rl.Holds, rs.Holds)
	}
	ab := sys.Alphabet()
	r := &Report{
		Property:         p.String(),
		States:           sys.NumStates(),
		Satisfied:        sat.Holds,
		RelativeLiveness: rl.Holds,
		RelativeSafety:   rs.Holds,
	}
	if !sat.Holds {
		for _, s := range sat.Counterexample.Prefix {
			r.Counterexample = append(r.Counterexample, ab.Name(s))
		}
		for _, s := range sat.Counterexample.Loop {
			r.CounterexampleLp = append(r.CounterexampleLp, ab.Name(s))
		}
	}
	if !rl.Holds {
		for _, s := range rl.BadPrefix {
			r.BadPrefix = append(r.BadPrefix, ab.Name(s))
		}
	}
	if !rs.Holds {
		for _, s := range rs.Violation.Prefix {
			r.Violation = append(r.Violation, ab.Name(s))
		}
		for _, s := range rs.Violation.Loop {
			r.ViolationLoop = append(r.ViolationLoop, ab.Name(s))
		}
	}
	return r, nil
}

// boolInt renders a verdict as a span attribute value.
func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
