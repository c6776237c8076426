package core

import (
	"context"
	"fmt"
	"sync"

	"relive/internal/alphabet"
	"relive/internal/obs"
	"relive/internal/ts"
)

// CheckPortfolioCtx runs CheckAll for every property against one
// system on a bounded worker pool of the given size. All properties
// share one single-flight SystemCells, so the system is trimmed and its
// behavior automaton lim(L) built exactly once, by whichever worker
// gets there first; everything property-specific (P→Büchi, ¬P,
// pre(L∩P)) is per property. Reports come back in the order of props,
// with verdicts and witnesses identical to running CheckAll serially
// per property. workers <= 0 means one worker per property (fully
// concurrent, bounded by GOMAXPROCS scheduling); workers == 1 is the
// serial path.
//
// The pool opens one "core.CheckPortfolio" root span on rec; each
// property check runs under a forked per-worker recorder whose
// top-level spans are tagged with the worker name and parented under
// the root, so concurrent span trees stay well-formed (see
// obs.ForkWorker). Each worker's checks poll ctx, and jobs not yet
// started when ctx expires are abandoned. The first error (preferring
// a non-context one) is returned.
func CheckPortfolioCtx(ctx context.Context, rec obs.Recorder, sys *ts.System, props []Property, workers int) ([]*Report, error) {
	sp := obs.StartSpan(rec, "core.CheckPortfolio").
		Int("properties", int64(len(props)))
	defer sp.End()
	sc := NewSystemCells(sys)
	reports := make([]*Report, len(props))
	errs := make([]error, len(props))
	run := func(rec obs.Recorder, i int) {
		if err := ctxErr(ctx); err != nil {
			errs[i] = err
			return
		}
		csp := obs.StartSpan(rec, "core.CheckAll").
			Tag("paper", "Section 4 (cross-checked via Theorem 4.7)").
			Tag("property", props[i].String())
		reports[i], errs[i] = checkAllPipe(NewPipelineCellsSharing(sc, props[i]).view(ctx, rec))
		csp.End()
	}
	pool(rec, sp.ID(), len(props), workers, run)
	sp.Int("workers", int64(poolSize(len(props), workers)))
	return reports, portfolioErr(errs, func(i int) string {
		return fmt.Sprintf("portfolio property %d (%s)", i, props[i].String())
	})
}

// CheckSystemsPortfolioCtx runs CheckAll for one property against
// every system on a bounded worker pool, with the same worker-count,
// span-attribution and cancellation rules as CheckPortfolioCtx. Systems
// sharing an alphabet (by pointer identity) share one single-flight
// property cell, so P→Büchi and ¬P — for formula properties the
// potentially exponential LTL translations — are built once per
// distinct alphabet rather than once per system. Reports come back in
// the order of systems, identical to the serial per-system results.
func CheckSystemsPortfolioCtx(ctx context.Context, rec obs.Recorder, systems []*ts.System, p Property, workers int) ([]*Report, error) {
	sp := obs.StartSpan(rec, "core.CheckSystemsPortfolio").
		Int("systems", int64(len(systems)))
	defer sp.End()
	cells := propCellsByAlphabet(systems, p)
	reports := make([]*Report, len(systems))
	errs := make([]error, len(systems))
	run := func(rec obs.Recorder, i int) {
		if err := ctxErr(ctx); err != nil {
			errs[i] = err
			return
		}
		sys := systems[i]
		pc := &PipelineCells{sys: sys, lim: newLimitsCell(sys), prop: cells[sys.Alphabet()]}
		csp := obs.StartSpan(rec, "core.CheckAll").
			Tag("paper", "Section 4 (cross-checked via Theorem 4.7)").
			Int("system", int64(i))
		reports[i], errs[i] = checkAllPipe(pc.view(ctx, rec))
		csp.End()
	}
	pool(rec, sp.ID(), len(systems), workers, run)
	sp.Int("workers", int64(poolSize(len(systems), workers)))
	return reports, portfolioErr(errs, func(i int) string {
		return fmt.Sprintf("portfolio system %d", i)
	})
}

// portfolioErr reduces per-job errors to one: the first non-context
// error if any (a deterministic failure outranks the cancellation that
// tore the other jobs down), otherwise the first context error. The
// reports slice is discarded by callers on a non-nil return.
func portfolioErr(errs []error, label func(int) string) error {
	for i, err := range errs {
		if err != nil && !isContextError(err) {
			return fmt.Errorf("%s: %w", label(i), err)
		}
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", label(i), err)
		}
	}
	return nil
}

// propCellsByAlphabet allocates one shared property cell per distinct
// alphabet (by pointer identity) across systems.
func propCellsByAlphabet(systems []*ts.System, p Property) map[*alphabet.Alphabet]*propCell {
	cells := map[*alphabet.Alphabet]*propCell{}
	for _, sys := range systems {
		ab := sys.Alphabet()
		if cells[ab] == nil {
			cells[ab] = &propCell{p: p, ab: ab}
		}
	}
	return cells
}

// poolSize resolves the worker count: at most one worker per job,
// at least one; workers <= 0 means one per job.
func poolSize(jobs, workers int) int {
	if workers <= 0 || workers > jobs {
		return jobs
	}
	return workers
}

// pool runs jobs 0..n-1 on a bounded worker pool. Each worker gets its
// own forked recorder ("worker-<k>") parented under parent, and pulls
// job indices from a shared atomic-free channel, so job-to-worker
// assignment is scheduling-dependent but the result slice indexing (and
// thus the output order) is not. workers == 1 degenerates to a plain
// serial loop on the caller's recorder.
func pool(rec obs.Recorder, parent obs.SpanID, n, workers int, run func(obs.Recorder, int)) {
	w := poolSize(n, workers)
	if w <= 1 {
		for i := 0; i < n; i++ {
			run(rec, i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			wrec := obs.ForkWorker(rec, fmt.Sprintf("worker-%d", k), parent)
			for i := range jobs {
				run(wrec, i)
			}
		}(k)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
