package core

import (
	"context"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/nfa"
	"relive/internal/obs"
	"relive/internal/ts"
)

// limArtifacts is the value of the limits cell: the trimmed system and
// its behavior automaton lim(L). A nil trimmed system (with nil error)
// is the vacuous case — sys has no infinite behavior at all.
type limArtifacts struct {
	trimmed   *ts.System
	behaviors *buchi.Buchi
}

// limitsCell is the single-flight memo for the trimmed system and its
// behavior automaton lim(L). It is shared by every pipeline checking
// the same system, so a property portfolio trims the system and builds
// lim(L) exactly once regardless of how many workers race into it; the
// serving layer additionally keeps these cells in its LRU so the
// artifacts survive across requests.
type limitsCell struct {
	sys *ts.System
	c   cell[limArtifacts]
}

func newLimitsCell(sys *ts.System) *limitsCell {
	return &limitsCell{sys: sys}
}

func (c *limitsCell) get(ctx context.Context, rec obs.Recorder) (*ts.System, *buchi.Buchi, error) {
	v, err := c.c.get(ctx, func() (limArtifacts, error) {
		trimmed, behaviors, err := trimmedBehaviors(ctx, rec, c.sys)
		return limArtifacts{trimmed: trimmed, behaviors: behaviors}, err
	})
	return v.trimmed, v.behaviors, err
}

// propCell is the single-flight memo for the property automaton P and
// its negation ¬P over one alphabet. A systems-side portfolio checking
// one property against many same-alphabet systems shares a single
// propCell, so the (potentially exponential) translations run once.
type propCell struct {
	p  Property
	ab *alphabet.Alphabet

	pa   cell[*buchi.Buchi]
	notP cell[*buchi.Buchi]
}

func (c *propCell) automaton(ctx context.Context, rec obs.Recorder) (*buchi.Buchi, error) {
	return c.pa.get(ctx, func() (*buchi.Buchi, error) {
		return c.p.AutomatonRec(rec, c.ab)
	})
}

func (c *propCell) negation(ctx context.Context, rec obs.Recorder) (*buchi.Buchi, error) {
	return c.notP.get(ctx, func() (*buchi.Buchi, error) {
		return c.p.NegationAutomatonRec(ctx, rec, c.ab)
	})
}

// SystemCells caches the system-only artifacts of the pipeline: the
// trimmed system and its behavior automaton lim(L). One SystemCells
// value may back many PipelineCells for different properties against
// the same system. Safe for concurrent use.
type SystemCells struct {
	sys *ts.System
	lim *limitsCell
}

// NewSystemCells wraps sys in a reusable single-flight artifact handle.
func NewSystemCells(sys *ts.System) *SystemCells {
	return &SystemCells{sys: sys, lim: newLimitsCell(sys)}
}

// System returns the underlying system. Serving layers that cache
// SystemCells by structural hash parse properties against this system's
// alphabet so all artifacts agree on symbol identity.
func (sc *SystemCells) System() *ts.System { return sc.sys }

// PipelineCells holds the single-flight artifact cells one (system,
// property) check fans out over: lim(L), P→Büchi, ¬P, and pre(L∩P).
// Each cell is built exactly once no matter which goroutine arrives
// first; the instrumentation span for an artifact is emitted by (and
// attributed to) whichever goroutine wins the race to build it. A
// builder whose context is cancelled mid-build leaves the cell empty
// for the next request (see cell). A serving layer keeps PipelineCells
// alive across requests, so concurrent identical requests coalesce onto
// one build and a cache hit skips the build entirely. Safe for
// concurrent use.
type PipelineCells struct {
	sys  *ts.System
	lim  *limitsCell
	prop *propCell

	prod cell[*nfa.NFA] // pre(L∩P): trim(PrefixNFA(behaviors ∩ P))
}

// NewPipelineCells builds a fresh artifact set for (sys, p).
func NewPipelineCells(sys *ts.System, p Property) *PipelineCells {
	return NewPipelineCellsSharing(NewSystemCells(sys), p)
}

// NewPipelineCellsSharing builds an artifact set for property p that
// shares sc's trimmed system and behavior automaton, so checking many
// properties against one system trims it exactly once.
func NewPipelineCellsSharing(sc *SystemCells, p Property) *PipelineCells {
	return &PipelineCells{sys: sc.sys, lim: sc.lim, prop: &propCell{p: p, ab: sc.sys.Alphabet()}}
}

// pipeline is one goroutine's view of a PipelineCells: the cells plus
// the recorder this goroutine's spans go to and the context its loops
// poll. The Section 4 decision procedures (satisfaction, relative
// liveness, relative safety) each take a pipeline; CheckAll hands all
// three views of the same cells, so each artifact is constructed
// exactly once per check, even when the three verdicts run
// concurrently. A nil ctx never cancels.
type pipeline struct {
	ctx   context.Context
	rec   obs.Recorder
	ops   buchi.Ops
	cells *PipelineCells
}

// view returns a pipeline over pc whose loops poll ctx and whose spans
// are reported to rec.
func (pc *PipelineCells) view(ctx context.Context, rec obs.Recorder) *pipeline {
	return &pipeline{ctx: ctx, rec: rec, ops: buchi.Ops{Rec: rec, Ctx: ctx}, cells: pc}
}

// limits returns the trimmed system and its behavior automaton lim(L).
// A nil trimmed system (with nil error) signals the vacuous case: sys
// has no infinite behavior at all.
func (pl *pipeline) limits() (*ts.System, *buchi.Buchi, error) {
	return pl.cells.lim.get(pl.ctx, pl.rec)
}

// property returns the Büchi automaton for P.
func (pl *pipeline) property() (*buchi.Buchi, error) {
	return pl.cells.prop.automaton(pl.ctx, pl.rec)
}

// negation returns the Büchi automaton for ¬P.
func (pl *pipeline) negation() (*buchi.Buchi, error) {
	return pl.cells.prop.negation(pl.ctx, pl.rec)
}

// preProduct returns pre(L∩P), the prefix language of the reduced
// product of the behaviors with the property automaton, shared by the
// Lemma 4.3 and Lemma 4.4 checks. The result is trim; it has zero
// states exactly when L_ω ∩ P = ∅. Must not be called in the vacuous
// case (nil trimmed system).
func (pl *pipeline) preProduct() (*nfa.NFA, error) {
	return pl.cells.prod.get(pl.ctx, func() (*nfa.NFA, error) {
		_, behaviors, err := pl.limits()
		if err != nil {
			return nil, err
		}
		pa, err := pl.property()
		if err != nil {
			return nil, err
		}
		psp := obs.StartSpan(pl.rec, "pre(L∩P)").
			Int("behavior_states", int64(behaviors.NumStates())).
			Int("property_states", int64(pa.NumStates()))
		preLP, explored, err := buchi.PreProductNFACtx(pl.ctx, behaviors, pa)
		if err != nil {
			psp.Tag("aborted", "context")
			psp.End()
			return nil, err
		}
		psp.Int("product_states", int64(explored))
		psp.Int("out_states", int64(preLP.NumStates()))
		psp.End()
		return preLP, nil
	})
}
