package graph

import (
	"context"
	"errors"
	"testing"
)

// The BFS loops poll their context once every 1<<10 iterations
// (internal/interrupt), so the cancellation tests need graphs whose
// traversal runs well past that.
const ctxLineLen = 5000

func lineSucc(n int) Succ {
	return func(v int32) []int32 {
		if int(v)+1 < n {
			return []int32{v + 1}
		}
		return nil
	}
}

func lineCSR(n int) CSR {
	off := make([]int32, n+1)
	var dst []int32
	for v := 0; v < n; v++ {
		off[v] = int32(len(dst))
		if v+1 < n {
			dst = append(dst, int32(v+1))
		}
	}
	off[n] = int32(len(dst))
	return CSR{Off: off, Dst: dst}
}

func TestReachableCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seen, err := Reachable(ctx, ctxLineLen, []int32{0}, lineSucc(ctxLineLen))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen != nil {
		t.Fatal("cancelled traversal returned a partial result")
	}
}

func TestReachableCtxNilAndLive(t *testing.T) {
	want, err := Reachable(nil, ctxLineLen, []int32{0}, lineSucc(ctxLineLen))
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []context.Context{nil, context.Background()} {
		seen, err := Reachable(ctx, ctxLineLen, []int32{0}, lineSucc(ctxLineLen))
		if err != nil {
			t.Fatalf("ctx=%v: %v", ctx, err)
		}
		for v := range want {
			if seen[v] != want[v] {
				t.Fatalf("ctx=%v: seen[%d] = %v, want %v", ctx, v, seen[v], want[v])
			}
		}
	}
}

// TestReachableCSRCtxCancelled runs Reachable over a CSR's Succ, the
// form the automata packages pass.
func TestReachableCSRCtxCancelled(t *testing.T) {
	g := lineCSR(ctxLineLen)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Reachable(ctx, ctxLineLen, []int32{0}, g.Succ); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	seen, err := Reachable(nil, ctxLineLen, []int32{0}, g.Succ)
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("state %d unreachable in line graph", v)
		}
	}
}

// TestSearchCtxCancelled: Search polls its context while it runs.
func TestSearchCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Search(ctx, []int32{0}, Static(lineCSR(ctxLineLen).Succ), func([]int32) bool { return false })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
