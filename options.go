package relive

import (
	"context"
	"io"
	"runtime"
	"time"

	"relive/internal/core"
	"relive/internal/ltl"
	"relive/internal/obs"
)

// Observability re-exports. A Recorder receives spans (nested phase
// timers), counters, and gauges from every decision procedure; Trace is
// the in-memory implementation whose dump powers the CLIs' -stats and
// -trace-json flags. See docs/OBSERVABILITY.md for the span naming
// convention (operations are "<package>.<Op>", lemma/theorem steps use
// the paper's notation and carry a "paper" tag).
type (
	// Recorder receives spans, counters, and gauges; nil means off and
	// costs one nil check per instrumentation point.
	Recorder = obs.Recorder
	// Trace is the in-memory Recorder; safe for concurrent use.
	Trace = obs.Trace
	// TraceDump is the serializable snapshot of a Trace.
	TraceDump = obs.Dump
	// SpanRecord is one recorded phase with duration, automaton sizes,
	// and paper tags.
	SpanRecord = obs.SpanRecord
)

// NewTrace returns an empty in-memory trace recorder.
func NewTrace() *Trace { return obs.NewTrace() }

// ReadTraceJSON parses a dump written by (*Trace).WriteJSON.
func ReadTraceJSON(r io.Reader) (TraceDump, error) { return obs.ReadJSON(r) }

// Checker runs the decision procedures with options attached — a
// Recorder, a parallelism degree, and the statistical engine's
// settings. Its methods are the library's one entry point per check; a
// bare With() is the default Checker (no recorder, serial, exact).
//
// Every method that takes a context polls it cooperatively inside the
// expensive loops (trim fixpoint, Büchi products, subset-construction
// inclusion, emptiness search, sampling), so a deadline or cancellation
// stops the PSPACE work promptly. A cancelled check returns an error
// wrapping context.Canceled or context.DeadlineExceeded; test with
// errors.Is. Context errors are never conflated with verdict errors: a
// completed check with a negative verdict returns (result, nil), and a
// genuine verdict error is returned even when a concurrent sibling was
// torn down by the cancellation. A nil context never cancels.
type Checker struct {
	rec Recorder
	par int

	// Statistical engine options (see statistical.go).
	statSeed    int64
	statSamples int
	statSteps   int
	statConf    float64
	fbStates    int
	fbTimeout   time.Duration
	fbSet       bool
}

// Option configures a Checker.
type Option func(*Checker)

// WithRecorder attaches a recorder so every phase of every check run
// through the returned Checker reports spans and metrics to it.
func WithRecorder(rec Recorder) Option {
	return func(c *Checker) { c.rec = rec }
}

// WithParallelism makes the Checker run its decision procedures on up
// to n goroutines: CheckAll runs the three Section 4 verdicts
// concurrently over one single-flight artifact pipeline, the portfolio
// checks use n as their worker-pool size, and CheckStatistical bounds
// its sampling workers by n. n <= 0 means runtime.GOMAXPROCS(0).
// Verdicts and witnesses are identical to the serial path — every
// artifact is deterministic and built exactly once regardless of
// goroutine arrival order; see docs/PERFORMANCE.md ("Parallelism").
// Without this option checks stay serial.
func WithParallelism(n int) Option {
	return func(c *Checker) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.par = n
	}
}

// With returns a Checker carrying the given options:
//
//	tr := relive.NewTrace()
//	p := relive.PropertyFromLTL(f, nil)
//	res, err := relive.With(relive.WithRecorder(tr)).CheckRelativeLiveness(ctx, sys, p)
//	tr.WriteTree(os.Stderr)
func With(opts ...Option) *Checker {
	c := &Checker{}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Recorder returns the attached recorder (nil when none).
func (c *Checker) Recorder() Recorder { return c.rec }

// Parallelism returns the configured parallelism degree (0 = serial).
func (c *Checker) Parallelism() int { return c.par }

// CheckRelativeLiveness decides whether p is a relative liveness
// property of sys (Definition 4.1, via Lemma 4.3). Wrap a formula with
// PropertyFromLTL(f, nil) to check it under the canonical labeling.
func (c *Checker) CheckRelativeLiveness(ctx context.Context, sys *System, p Property) (LivenessResult, error) {
	return core.RelativeLivenessCellsCtx(ctx, c.rec, core.NewPipelineCells(sys, p))
}

// CheckRelativeSafety decides whether p is a relative safety property
// of sys (Definition 4.2, via Lemma 4.4).
func (c *Checker) CheckRelativeSafety(ctx context.Context, sys *System, p Property) (SafetyResult, error) {
	return core.RelativeSafetyCellsCtx(ctx, c.rec, core.NewPipelineCells(sys, p))
}

// CheckSatisfies decides plain satisfaction L_ω ⊆ P. By Theorem 4.7 it
// agrees with the conjunction of the two relative checks.
func (c *Checker) CheckSatisfies(ctx context.Context, sys *System, p Property) (SatisfactionResult, error) {
	return core.SatisfiesCellsCtx(ctx, c.rec, core.NewPipelineCells(sys, p))
}

// CheckAll runs all three checks of Section 4 over one shared artifact
// pipeline and cross-validates Theorem 4.7. Under WithParallelism the
// three verdicts run concurrently; the report is identical to the
// serial one. Under WithStatisticalFallback a system over the state
// budget — or an exact run over the time budget — is answered by the
// sampling engine instead (the report's Statistical field marks such
// answers).
func (c *Checker) CheckAll(ctx context.Context, sys *System, p Property) (*Report, error) {
	if c.fbSet {
		return c.checkAllWithFallback(ctx, sys, p)
	}
	return core.CheckAllCellsCtx(ctx, c.rec, core.NewPipelineCells(sys, p), c.par)
}

// CheckPropertyPortfolio runs CheckAll for every property against sys
// on a worker pool of the Checker's parallelism degree (serial without
// WithParallelism). All properties share the trimmed system and its
// behavior automaton, built once by whichever worker needs them first;
// reports come back in props order with verdicts and witnesses
// identical to checking each property serially. Running checks poll
// ctx and not-yet-started jobs are abandoned once it expires.
func (c *Checker) CheckPropertyPortfolio(ctx context.Context, sys *System, props []Property) ([]*Report, error) {
	return core.CheckPortfolioCtx(ctx, c.rec, sys, props, c.portfolioWorkers())
}

// CheckSystemsPortfolio runs CheckAll for one property against every
// system on a worker pool of the Checker's parallelism degree. Systems
// sharing an alphabet share the property automaton and its negation.
// Reports come back in systems order, identical to the serial results.
func (c *Checker) CheckSystemsPortfolio(ctx context.Context, systems []*System, p Property) ([]*Report, error) {
	return core.CheckSystemsPortfolioCtx(ctx, c.rec, systems, p, c.portfolioWorkers())
}

// portfolioWorkers maps the option to the pool size: without
// WithParallelism the portfolio runs serially (core treats <= 1 as a
// plain loop); core.CheckPortfolioCtx treats 0 as one-per-job, which is
// not what an unconfigured Checker should do.
func (c *Checker) portfolioWorkers() int {
	if c.par <= 0 {
		return 1
	}
	return c.par
}

// MachineClosed decides Definition 4.6 for two Büchi automata.
func (c *Checker) MachineClosed(lomega, lambda *Buchi) (MachineClosureResult, error) {
	return core.MachineClosed(c.rec, lomega, lambda)
}

// SynthesizeFairImplementation runs the Theorem 5.1 construction: a
// system with the same behaviors whose strongly fair runs all satisfy
// the relative liveness property f (under the canonical labeling).
func (c *Checker) SynthesizeFairImplementation(sys *System, f *Formula) (*FairImplementation, error) {
	return core.SynthesizeFairImplementation(c.rec, sys, core.FromFormula(f, nil))
}

// VerifyViaAbstraction runs the paper's abstraction method end to end:
// abstract sys under h, check that eta (in Σ'-normal form over h's
// destination alphabet) is a relative liveness property of the abstract
// behaviors, decide simplicity of h, and conclude per Corollary 8.4.
func (c *Checker) VerifyViaAbstraction(ctx context.Context, sys *System, h *Hom, eta *Formula) (*AbstractionReport, error) {
	return core.VerifyViaAbstractionCtx(ctx, c.rec, sys, h, eta)
}

// CheckFairAbstract decides whether all kind-fair runs of sys satisfy
// eta through h — the fairness-within-abstraction verdict combining
// the Theorem 5.1 fair-emptiness machinery with the Sections 6–8
// abstraction constructions. eta must be in Σ'-normal form over h's
// destination alphabet.
func (c *Checker) CheckFairAbstract(ctx context.Context, sys *System, h *Hom, kind FairnessKind, eta *Formula) (*FairAbstractReport, error) {
	p := core.FromFormula(eta, ltl.Canonical(h.Dest()))
	return core.CheckFairAbstractCells(ctx, c.rec, core.NewSystemCells(sys), h, kind, p)
}
