package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The router's white-box suite: the key mirror (router keys must equal
// the backends' cache keys, or coalescing would merge what a backend
// would not, and must not drift from warm store volumes), ring placement, bounded load, and the coalescing cell's
// lifecycle. The black-box cluster behavior lives in cluster_test.go.

// stubBackends starts n trivial HTTP servers whose /healthz always
// answers 200, so NewRouter's prober keeps them healthy.
func stubBackends(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		}))
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	return urls
}

func newTestRouter(t *testing.T, urls []string) *Router {
	t.Helper()
	rt, err := NewRouter(RouterConfig{Backends: urls, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestRouteKeyMirrorsBackendKeys pins the router's central invariant:
// the key the router derives for a body is exactly the report key a
// backend caches its answer under, so router-level coalescing can only
// merge requests a single backend's report cache would merge. Every body
// is served through a real Server, and the router's key must equal the
// hash the backend's flight record carries. Each key is also pinned to
// its hex value: a change to the key format would orphan every warm
// store volume, so it must fail here.
func TestRouteKeyMirrorsBackendKeys(t *testing.T) {
	s := New(Config{})
	const sysText = "init idle\nidle request busy\nbusy result idle\nbusy reject idle\n"
	// A differently-spelled but structurally identical system (blank
	// lines, extra spaces) and formula spelling share one key.
	const variant = "\ninit idle\n\nidle  request   busy\nbusy result idle\nbusy reject idle\n\n"
	const sysKey = "64781e156e6478ec804a47fa94ea9de67559ae241941e0bce57a5029653a3cd5"
	const omegaText = "( request result | request reject ) ^w"
	cases := []struct {
		endpoint string
		body     any
		rkey     string
	}{
		{"all", CheckRequest{System: sysText, LTL: "G F result"},
			"c848db0f254a6fb510d090d71480ef259e087e8617909c86f2be9d167e8eeb3f"},
		{"liveness", CheckRequest{System: sysText, LTL: "G F result"},
			"2c3ac39d0ec2f868cc6418e7a07128ba2e394e7422858b8d127facd3265c9ea4"},
		{"safety", CheckRequest{System: sysText, LTL: "G F result"},
			"06f83b365a3e103a5d87b14066ac61833ed2ac9a99c784a6e7301dcaf7a1b40f"},
		{"satisfies", CheckRequest{System: sysText, LTL: "G F result"},
			"42be4ab154b890f4c3bc123c06e4ba7c2c4e6cf9f830aefa6fc3317008e61670"},
		// ω-regex properties are keyed by raw text on both sides.
		{"all", CheckRequest{System: sysText, Omega: omegaText},
			"d9d11855c78f36aa1ccc0819af0a7627f166337551511916675569d4272e04bf"},
		{"portfolio", PortfolioRequest{System: sysText, LTLs: []string{"G F result", "G F request"}},
			"64161dab72f3ea544dbb834a99da3a38dc5349d46f4e5cc9c97e4b263aa25a94"},
		{"portfolio", PortfolioRequest{System: sysText, LTLs: []string{"G F result"}, Omegas: []string{omegaText}},
			"9f90d67d6387dd3f4fba94e20defe9e526b8ab16d76b829a164d16dbc091d7d5"},
		{"abstraction", AbstractionRequest{System: sysText,
			Hom: "request=>request, result=>result, reject=>reject", Eta: "G F ( result | reject )"},
			"529268ef69eaf3f77a36908e580fba204da9fa9a81b39176247821b97512ee13"},
		// The fairness notion is part of the key, so strong and weak
		// requests never coalesce into one another.
		{"fair-abstract", FairAbstractRequest{System: sysText,
			Hom: "request=>req, result=>ok, reject=>", Fairness: "strong", Eta: "G F ( ok )"},
			"80e13a131e16a703c2857b973cb2c8def3236fe09c885a1327626a3c164c8aa0"},
		{"fair-abstract", FairAbstractRequest{System: sysText,
			Hom: "request=>req, result=>ok, reject=>", Fairness: "weak", Eta: "G F ( ok )"},
			"e032cf6da84e72a5ab336ccf6ebb4193103afb96505640a443d611c9d7587bd7"},
		// The decoder normalizes the sampling budget before keying, so an
		// unset budget and the spelled-out defaults share a key; the seed
		// is part of the key.
		{"statistical", StatisticalRequest{System: sysText, LTL: "G F result", Seed: 7},
			"2a3eba38109c6e37e0ea4c2cbc1740bee53d499dab7d245aaac47013bab1e9d8"},
		{"statistical", StatisticalRequest{System: sysText, LTL: "G F result", Seed: 7,
			Samples: 400, Steps: 256, Confidence: 0.99},
			"2a3eba38109c6e37e0ea4c2cbc1740bee53d499dab7d245aaac47013bab1e9d8"},
		{"statistical", StatisticalRequest{System: sysText, LTL: "G F result", Seed: 8},
			"fd371910228ef1903a420b1a7b9c8327c8d255931213a6f207669ab72bd86f13"},
		{"all", CheckRequest{System: variant, LTL: "G  F   result"},
			"c848db0f254a6fb510d090d71480ef259e087e8617909c86f2be9d167e8eeb3f"},
		{"all", CheckRequest{System: sysText, LTL: "G F request"},
			"b7d43e8b748281b8d19b5de99d768dcc3c25b520514300c39b31e93302aa7446"},
	}
	for i, tc := range cases {
		body, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := endpointNamed(tc.endpoint).decode(body)
		if err != nil {
			t.Fatalf("case %d %s: router key: %v", i, tc.endpoint, err)
		}
		if req.rkey != tc.rkey {
			t.Fatalf("case %d %s: router key %s, pinned %s", i, tc.endpoint, req.rkey, tc.rkey)
		}
		if req.system.key != sysKey {
			t.Fatalf("case %d %s: placement key %s, pinned %s", i, tc.endpoint, req.system.key, sysKey)
		}

		traceID := fmt.Sprintf("%032x", i+1)
		r := httptest.NewRequest(http.MethodPost, "/v1/check/"+tc.endpoint, bytes.NewReader(body))
		r.Header.Set(TraceHeader, "00-"+traceID+"-00000000000000a1-01")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("case %d %s: status %d: %s", i, tc.endpoint, w.Code, w.Body)
		}
		var hash string
		for _, rec := range s.FlightRecords() {
			if rec.TraceID == traceID {
				hash = rec.Hash
			}
		}
		if hash != req.rkey {
			t.Fatalf("case %d %s: router key %s, backend flight record hash %q", i, tc.endpoint, req.rkey, hash)
		}
	}

	// Malformed requests are rejected by the router's key derivation with
	// the errors the backend would produce.
	for _, bad := range []struct{ endpoint, body string }{
		{"all", `{"ltl":"G F a"}`},
		{"fair-abstract", `{"system":"init s\ns a s\n","hom":"a=>x","fairness":"fair","eta":"G x"}`},
		{"statistical", `{"system":"init s\ns a s\n","ltl":"G a","samples":-1}`},
	} {
		if _, err := endpointNamed(bad.endpoint).decode([]byte(bad.body)); err == nil {
			t.Fatalf("%s: router accepted %s", bad.endpoint, bad.body)
		}
	}
	if endpointNamed("nope") != nil {
		t.Fatal("unknown endpoint found in the endpoint table")
	}
}

// TestPickDeterministicSpread: placement is a pure function of the key,
// and distinct keys spread over every backend.
func TestPickDeterministicSpread(t *testing.T) {
	rt := newTestRouter(t, stubBackends(t, 3))
	counts := make(map[string]int)
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("sys-%d", i)
		order := rt.pick(key)
		if len(order) != 3 {
			t.Fatalf("pick returned %d backends, want 3", len(order))
		}
		again := rt.pick(key)
		for j := range order {
			if order[j] != again[j] {
				t.Fatalf("pick(%q) not deterministic at position %d", key, j)
			}
		}
		counts[order[0].url]++
	}
	for _, b := range rt.backends {
		if c := counts[b.url]; c < 60 { // 10% of 600; fair share is 200
			t.Fatalf("backend %s owns only %d/600 keys — ring is unbalanced: %v", b.url, c, counts)
		}
	}
}

// TestPickBoundedLoadAndHealth: an overloaded backend yields its keys
// to the next ring candidate, and an unhealthy one sorts last.
func TestPickBoundedLoadAndHealth(t *testing.T) {
	rt := newTestRouter(t, stubBackends(t, 3))
	key := "hot-system"
	first := rt.pick(key)[0]

	// Pile in-flight proxies on the key's owner: with total=40 over 3
	// healthy backends the bounded-load cap is well under 40, so the
	// owner must be skipped.
	first.inflight.Store(40)
	order := rt.pick(key)
	if order[0] == first {
		t.Fatal("bounded load kept routing to the overloaded owner")
	}
	if order[len(order)-1] != first {
		t.Fatal("overloaded owner should sort after under-capacity backends")
	}
	first.inflight.Store(0)
	if rt.pick(key)[0] != first {
		t.Fatal("owner did not get its keys back after draining")
	}

	// Unhealthy sorts last but is still offered as a last resort.
	first.healthy.Store(false)
	order = rt.pick(key)
	if order[0] == first || order[len(order)-1] != first {
		t.Fatal("unhealthy owner should be the last resort")
	}
	first.healthy.Store(true)
}

// TestCoalesceLifecycle: one run per key across concurrent callers,
// errors shared with the waiters of the moment but never sticky, and
// the last departing waiter cancels the detached run.
func TestCoalesceLifecycle(t *testing.T) {
	rt := &Router{flight: make(map[string]*flightCell)}
	var runs atomic.Int64
	release := make(chan struct{})
	fn := func(ctx context.Context) (*proxyResult, error) {
		runs.Add(1)
		<-release
		return &proxyResult{status: 200, body: []byte("shared")}, nil
	}

	const n = 50
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			res, shared, err := rt.coalesce("k", context.Background(), time.Minute, fn)
			if err != nil || string(res.body) != "shared" {
				t.Errorf("coalesced call: res=%v err=%v", res, err)
				return
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	// All callers are in flight (the leader is parked on release);
	// every later arrival must have joined its cell.
	for {
		rt.mu.Lock()
		c := rt.flight["k"]
		waiters := 0
		if c != nil {
			waiters = c.waiters
		}
		rt.mu.Unlock()
		if waiters == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d concurrent identical calls ran fn %d times, want 1", n, got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Fatalf("shared=true for %d callers, want %d", got, n-1)
	}

	// Errors are delivered to current waiters but the cell dies with the
	// run: the next call retries immediately.
	boom := errors.New("backend exploded")
	failOnce := func(ctx context.Context) (*proxyResult, error) { return nil, boom }
	if _, _, err := rt.coalesce("e", context.Background(), time.Minute, failOnce); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	ok := func(ctx context.Context) (*proxyResult, error) {
		return &proxyResult{status: 200, body: []byte("recovered")}, nil
	}
	res, shared, err := rt.coalesce("e", context.Background(), time.Minute, ok)
	if err != nil || shared || string(res.body) != "recovered" {
		t.Fatalf("error was sticky: res=%v shared=%v err=%v", res, shared, err)
	}

	// Last waiter out cancels the detached run.
	cancelled := make(chan struct{})
	hang := func(ctx context.Context) (*proxyResult, error) {
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}
	clientCtx, clientCancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := rt.coalesce("h", clientCtx, time.Minute, hang)
		errc <- err
	}()
	for {
		rt.mu.Lock()
		_, inFlight := rt.flight["h"]
		rt.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	clientCancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("departing caller got %v, want context.Canceled", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned run was never cancelled")
	}
}

// TestRouterRejectsEmptyBackends: configuration errors are loud.
func TestRouterRejectsEmptyBackends(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Fatal("NewRouter accepted zero backends")
	}
	if _, err := NewRouter(RouterConfig{Backends: []string{"", "  "}}); err == nil {
		t.Fatal("NewRouter accepted only-blank backend URLs")
	}
}
