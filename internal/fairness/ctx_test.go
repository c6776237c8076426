package fairness

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/graph"
	"relive/internal/ts"
)

// countingCtx reports context.Canceled from its cancelAfter+1-th Err
// call on (never, when cancelAfter < 0), so a test can cancel at an
// exact checkpoint.
type countingCtx struct {
	context.Context
	calls, cancelAfter int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.cancelAfter >= 0 && c.calls > c.cancelAfter {
		return context.Canceled
	}
	return nil
}

// TestExistsFairRunRefinementCancelled: the SCC refinement polls the
// context. The context here lets every checkpoint before the
// refinement (entry, trim, product build, reachability) pass and
// cancels from the first poll inside the refinement, whose search over
// the 2n product vertices runs past one poll interval.
func TestExistsFairRunRefinementCancelled(t *testing.T) {
	const n = 1500
	ab := alphabet.FromNames("a", "b")
	sys := ts.New(ab)
	for i := 0; i < n; i++ {
		sys.AddEdge(fmt.Sprint("s", i), "a", fmt.Sprint("s", (i+1)%n))
		sys.AddEdge(fmt.Sprint("s", i), "b", fmt.Sprint("s", (i+7)%n))
	}
	init, _ := sys.LookupState("s0")
	sys.SetInitial(init)
	prop := buchi.UniversalAutomaton(ab)

	pre := &countingCtx{Context: context.Background(), cancelAfter: -1}
	pre.Err() // ExistsFairRunCtx's entry check
	trimmed, err := sys.TrimCtx(pre)
	if err != nil {
		t.Fatal(err)
	}
	g, err := buildProduct(pre, trimmed, prop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graph.Reachable(pre, len(g.verts), g.initVerts, g.succ); err != nil {
		t.Fatal(err)
	}

	all := &countingCtx{Context: context.Background(), cancelAfter: -1}
	if _, found, err := ExistsFairRunCtx(all, sys, prop, Strong); err != nil || !found {
		t.Fatalf("uncancelled: found=%v err=%v, want a fair run", found, err)
	}
	if all.calls <= pre.calls {
		t.Fatalf("refinement polled the context %d times, want at least once", all.calls-pre.calls)
	}

	ctx := &countingCtx{Context: context.Background(), cancelAfter: pre.calls}
	_, found, err := ExistsFairRunCtx(ctx, sys, prop, Strong)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("found=%v err=%v, want context.Canceled from the refinement", found, err)
	}
}
