package main

import "testing"

// TestSeedSelfTest: the same seed gives a byte-identical request
// sequence and a different seed a different one, for every workload.
// Every run of the benchmark repeats this check before it starts.
func TestSeedSelfTest(t *testing.T) {
	for _, wl := range []string{wlColdMix, wlHotReplay, wlRouted} {
		for _, seed := range []int64{1, 2, heldOutSeed} {
			if err := seedSelfTest(wl, seed); err != nil {
				t.Errorf("%s: %v", wl, err)
			}
		}
	}
}

// TestRoutedReplaysHotReplay: routed sends exactly the hot-replay
// bytes, so the two workloads differ only by the router.
func TestRoutedReplaysHotReplay(t *testing.T) {
	hot, err := makeWorkload(wlHotReplay, 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := makeWorkload(wlRouted, 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	if hot.digest() != routed.digest() {
		t.Fatal("routed and hot-replay sequences differ for one seed")
	}
}

// TestBodySizes: the working set spans about 0.3 KB to 50 KB of body.
func TestBodySizes(t *testing.T) {
	w, err := makeWorkload(wlHotReplay, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := len(w.warm[0].Body), 0
	for _, r := range w.warm {
		if n := len(r.Body); n < lo {
			lo = n
		} else if n > hi {
			hi = n
		}
	}
	if lo > 600 || hi < 35000 || hi > 80000 {
		t.Fatalf("working-set bodies span %d to %d bytes, want about 300 to 50000", lo, hi)
	}
}
