package relive

import (
	"context"
	"io"
	"runtime"
	"time"

	"relive/internal/core"
	"relive/internal/kernel"
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

// KernelKind selects which decision-procedure kernel the inclusion and
// universality checks inside a Checker run on; see WithKernel.
type KernelKind = kernel.Kind

// The kernel choices. KernelAuto picks per call site by input size and
// is the default; KernelSubset forces the classic eagerly-materialized
// routes; KernelAntichain forces the antichain/lazy routes. Verdicts
// and witnesses are identical across kernels — only the work to reach
// them differs.
const (
	KernelAuto      = kernel.Auto
	KernelSubset    = kernel.Subset
	KernelAntichain = kernel.Antichain
)

// Checker runs the decision procedures with options attached — a
// Recorder, a parallelism degree, and a kernel choice; the zero value
// (or With() with no options) behaves exactly like the package-level
// functions.
type Checker struct {
	rec       Recorder
	par       int
	kern      kernel.Kind
	kernSet   bool
	simCap    int
	simCapSet bool

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
// to n goroutines: CheckAll/CheckAllProperty run the three Section 4
// verdicts concurrently over one single-flight artifact pipeline, and
// the portfolio entry points use n as their worker-pool size. n <= 0
// means runtime.GOMAXPROCS(0). Verdicts and witnesses are identical to
// the serial path — every artifact is deterministic and built exactly
// once regardless of goroutine arrival order; see docs/PERFORMANCE.md
// ("Parallelism"). Without this option checks stay serial.
func WithParallelism(n int) Option {
	return func(c *Checker) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.par = n
	}
}

// WithKernel scopes a kernel choice to the returned Checker: every
// inclusion, universality, and pre(L∩P) construction run through it
// uses the chosen kernel, overriding the process-wide default set by
// the CLIs' -kernel flag. KernelSubset is the escape hatch for
// bisecting a suspected antichain-kernel fault; verdicts and witnesses
// are identical either way (the antichain kernels are differ-checked
// against the subset routes, see docs/PERFORMANCE.md).
func WithKernel(k KernelKind) Option {
	return func(c *Checker) {
		c.kern = k
		c.kernSet = true
	}
}

// WithSimulationCap scopes the antichain kernels' simulation-seeding
// cap to the returned Checker: the maximum simulation-pair space
// (|b|² + |a|·|b| for an inclusion a ⊆ b) the kernels may spend
// computing the simulation preorder that widens antichain subsumption.
// Inputs over the cap — and every input when n is 0 — skip the preorder
// and prune by plain ⊆ alone. Verdicts and witnesses are identical at
// any cap (the preorder only removes redundant work, never answers);
// the cap trades seeding cost against search pruning. The process-wide
// default is kernel.DefaultSimulationCap (see the CLIs' -sim-cap flag).
func WithSimulationCap(n int) Option {
	return func(c *Checker) {
		if n < 0 {
			n = 0
		}
		c.simCap = n
		c.simCapSet = true
	}
}

// With returns a Checker carrying the given options. Existing
// package-level entry points are unchanged; this is the additive way to
// attach observability:
//
//	tr := relive.NewTrace()
//	res, err := relive.With(relive.WithRecorder(tr)).CheckRelativeLiveness(sys, f)
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

// kernelCtx returns ctx carrying the Checker's kernel and
// simulation-cap overrides, or ctx unchanged when neither option was
// given (so checks fall back to the process-wide defaults). A nil ctx
// with an override becomes a background context; without one it stays
// nil (the uncancellable serial path).
func (c *Checker) kernelCtx(ctx context.Context) context.Context {
	if c.kernSet {
		ctx = kernel.NewContext(ctx, c.kern)
	}
	if c.simCapSet {
		ctx = kernel.WithSimulationCap(ctx, c.simCap)
	}
	return ctx
}

// CheckRelativeLiveness is the package-level CheckRelativeLiveness with
// the Checker's options applied.
func (c *Checker) CheckRelativeLiveness(sys *System, f *Formula) (LivenessResult, error) {
	return c.CheckRelativeLivenessProperty(sys, core.FromFormula(f, nil))
}

// CheckRelativeLivenessProperty is CheckRelativeLiveness for a Property.
func (c *Checker) CheckRelativeLivenessProperty(sys *System, p Property) (LivenessResult, error) {
	if c.kernSet || c.simCapSet {
		return core.RelativeLivenessCtx(c.kernelCtx(nil), c.rec, sys, p)
	}
	return core.RelativeLivenessRec(c.rec, sys, p)
}

// CheckRelativeSafety is the package-level CheckRelativeSafety with the
// Checker's options applied.
func (c *Checker) CheckRelativeSafety(sys *System, f *Formula) (SafetyResult, error) {
	return c.CheckRelativeSafetyProperty(sys, core.FromFormula(f, nil))
}

// CheckRelativeSafetyProperty is CheckRelativeSafety for a Property.
func (c *Checker) CheckRelativeSafetyProperty(sys *System, p Property) (SafetyResult, error) {
	if c.kernSet || c.simCapSet {
		return core.RelativeSafetyCtx(c.kernelCtx(nil), c.rec, sys, p)
	}
	return core.RelativeSafetyRec(c.rec, sys, p)
}

// CheckSatisfies is the package-level CheckSatisfies with the Checker's
// options applied.
func (c *Checker) CheckSatisfies(sys *System, f *Formula) (SatisfactionResult, error) {
	return c.CheckSatisfiesProperty(sys, core.FromFormula(f, nil))
}

// CheckSatisfiesProperty is CheckSatisfies for a Property.
func (c *Checker) CheckSatisfiesProperty(sys *System, p Property) (SatisfactionResult, error) {
	if c.kernSet || c.simCapSet {
		return core.SatisfiesCtx(c.kernelCtx(nil), c.rec, sys, p)
	}
	return core.SatisfiesRec(c.rec, sys, p)
}

// CheckAll is the package-level CheckAll with the Checker's options
// applied. Under WithParallelism the three verdicts run concurrently;
// the report is identical to the serial one.
func (c *Checker) CheckAll(sys *System, f *Formula) (*Report, error) {
	return c.CheckAllProperty(sys, core.FromFormula(f, nil))
}

// CheckAllProperty is CheckAll for a Property.
func (c *Checker) CheckAllProperty(sys *System, p Property) (*Report, error) {
	if c.kernSet || c.simCapSet {
		return core.CheckAllCtx(c.kernelCtx(nil), c.rec, sys, p, c.par)
	}
	return core.CheckAllParRec(c.rec, sys, p, c.par)
}

// CheckPropertyPortfolio runs CheckAll for every property against sys
// on a worker pool of the Checker's parallelism degree (serial without
// WithParallelism). All properties share the trimmed system and its
// behavior automaton, built once by whichever worker needs them first;
// reports come back in props order with verdicts and witnesses
// identical to checking each property serially.
func (c *Checker) CheckPropertyPortfolio(sys *System, props []Property) ([]*Report, error) {
	if c.kernSet || c.simCapSet {
		return core.CheckPortfolioCtx(c.kernelCtx(nil), c.rec, sys, props, c.portfolioWorkers())
	}
	return core.CheckPortfolioRec(c.rec, sys, props, c.portfolioWorkers())
}

// CheckSystemsPortfolio runs CheckAll for one property against every
// system on a worker pool of the Checker's parallelism degree. Systems
// sharing an alphabet share the property automaton and its negation.
// Reports come back in systems order, identical to the serial results.
func (c *Checker) CheckSystemsPortfolio(systems []*System, p Property) ([]*Report, error) {
	if c.kernSet || c.simCapSet {
		return core.CheckSystemsPortfolioCtx(c.kernelCtx(nil), c.rec, systems, p, c.portfolioWorkers())
	}
	return core.CheckSystemsPortfolioRec(c.rec, systems, p, c.portfolioWorkers())
}

// portfolioWorkers maps the option to the pool size: without
// WithParallelism the portfolio runs serially (core treats <= 1 as a
// plain loop); core.CheckPortfolioRec treats 0 as one-per-job, which is
// not what an unconfigured Checker should do.
func (c *Checker) portfolioWorkers() int {
	if c.par <= 0 {
		return 1
	}
	return c.par
}

// MachineClosed is the package-level MachineClosed with the Checker's
// options applied.
func (c *Checker) MachineClosed(lomega, lambda *Buchi) (MachineClosureResult, error) {
	return core.MachineClosedRec(c.rec, lomega, lambda)
}

// SynthesizeFairImplementation is the package-level
// SynthesizeFairImplementation with the Checker's options applied.
func (c *Checker) SynthesizeFairImplementation(sys *System, f *Formula) (*FairImplementation, error) {
	return core.SynthesizeFairImplementationRec(c.rec, sys, core.FromFormula(f, nil))
}

// VerifyViaAbstraction is the package-level VerifyViaAbstraction with
// the Checker's options applied.
func (c *Checker) VerifyViaAbstraction(sys *System, h *Hom, eta *Formula) (*AbstractionReport, error) {
	return core.VerifyViaAbstractionCtx(c.kernelCtx(nil), c.rec, sys, h, eta)
}

// CheckFairAbstract is the package-level CheckFairAbstract with the
// Checker's options applied. The verdict and report are identical under
// every kernel choice.
func (c *Checker) CheckFairAbstract(sys *System, h *Hom, kind FairnessKind, eta *Formula) (*FairAbstractReport, error) {
	p := core.FromFormula(eta, ltl.Canonical(h.Dest()))
	if c.kernSet || c.simCapSet {
		return core.CheckFairAbstractCtx(c.kernelCtx(nil), c.rec, sys, h, kind, p)
	}
	return core.CheckFairAbstractRec(c.rec, sys, h, kind, p)
}
