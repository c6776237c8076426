package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"relive/internal/gen"
	"relive/internal/paper"
	"relive/internal/serve"
	"relive/internal/ts"
)

// The eight check endpoints of rlserve, in the order the per-endpoint
// metrics list them.
var endpoints = []string{
	"all", "liveness", "safety", "satisfies", "portfolio",
	"abstraction", "fair-abstract", "statistical",
}

// spec is one check's inputs before they are encoded into a request
// body. The output check and the layer replays decode the body again,
// with the service's own decoders.
type spec struct {
	System   string
	LTL      string
	Omega    string
	LTLs     []string
	Hom      string
	Eta      string
	Fairness string
	Seed     int64
	Samples  int
}

// request is one generated HTTP request: an endpoint and the exact body
// the program receives.
type request struct {
	Endpoint string
	Spec     spec
	// Entry is the hot working-set entry this request replays, or -1
	// for a request whose body appears nowhere else in the run.
	Entry int
	// NoCache marks cold-mix requests: the report cache is neither read
	// nor filled, so every one of them misses it.
	NoCache bool
	Body    []byte
}

// encode renders the request body with the service's own wire types.
func (r *request) encode() {
	s := r.Spec
	var v any
	switch r.Endpoint {
	case "all", "liveness", "safety", "satisfies":
		v = serve.CheckRequest{System: s.System, LTL: s.LTL, Omega: s.Omega, NoCache: r.NoCache}
	case "portfolio":
		v = serve.PortfolioRequest{System: s.System, LTLs: s.LTLs, NoCache: r.NoCache}
	case "abstraction":
		v = serve.AbstractionRequest{System: s.System, Hom: s.Hom, Eta: s.Eta, NoCache: r.NoCache}
	case "fair-abstract":
		v = serve.FairAbstractRequest{System: s.System, Hom: s.Hom, Fairness: s.Fairness, Eta: s.Eta, NoCache: r.NoCache}
	case "statistical":
		v = serve.StatisticalRequest{System: s.System, LTL: s.LTL, Seed: s.Seed, Samples: s.Samples, NoCache: r.NoCache}
	default:
		panic("unknown endpoint " + r.Endpoint)
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	// From here on the body is the request: the output check and the
	// replays decode it, and a long sequence keeps one copy of each system.
	r.Body = body
	r.Spec = spec{}
}

// workload is everything a run sends: the set-up requests (the hot
// working set, warmed before the timed window) and the timed sequence.
type workload struct {
	name  string
	warm  []*request // hot-replay and routed: one request per working-set entry
	timed []*request // consumed in order by the closed-loop clients
}

// digest fingerprints the exact byte sequence the program receives, for
// the seed self-test.
func (w *workload) digest() string {
	h := sha256.New()
	for _, part := range [][]*request{w.warm, w.timed} {
		for _, r := range part {
			fmt.Fprintf(h, "%s\x00%d\x00", r.Endpoint, len(r.Body))
			h.Write(r.Body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Workload names, as BENCHMARK.json lists them.
const (
	wlColdMix   = "cold-mix"
	wlHotReplay = "hot-replay"
	wlRouted    = "routed"
)

// makeWorkload generates the named workload from seed. n bounds the
// timed sequence; the clients stop early if they exhaust it.
func makeWorkload(name string, seed int64, n int) (*workload, error) {
	switch name {
	case wlColdMix:
		return &workload{name: name, warm: coldWarm(), timed: coldMix(seed, n)}, nil
	case wlHotReplay, wlRouted:
		// routed replays exactly the hot-replay sequence, so comparing
		// the two on one seed isolates the router.
		warm, timed := hotReplay(seed, n)
		return &workload{name: name, warm: warm, timed: timed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, wlColdMix, wlHotReplay, wlRouted)
}

// ---- cold-mix ------------------------------------------------------------
//
// Why: every request misses the report cache (no_cache, no store), so
// the core phases and the buchi/nfa/mc/hom/fairness engines do almost
// all the work; engine and kernel changes show here and serve-layer
// changes should not. Each (system, property) group is asked at 1–3
// endpoints back to back, so later requests of a group take the
// pipeline-hit path. Measured on seeds 21–25: 70–77% of requests miss
// every cache, 23–30% are pipeline hits, none are report or store hits.
//
// The shape of every slot — group kind, system size, letter count,
// density, property and endpoints — is a fixed function of the slot
// number, so every seed sends the same mix; the seed draws the systems'
// transition structure (and the statistical checks' sampling seeds).
// That keeps the run-to-run spread of the end-to-end metrics small
// while every seed still sends different bytes.

// coldSchedule is the per-cycle group kind order. Small random systems
// dominate (they set the median); the large, dense and k-th-from-end
// groups set the tail.
var coldSchedule = []string{
	"small", "abstract", "small", "medium", "kth", "small", "paper",
	"medium", "small", "large", "fair", "small", "kth", "medium", "stat",
}

func coldMix(seed int64, n int) []*request {
	// Each slot draws from its own seeded source, so slots can be
	// generated in parallel and the sequence is still a function of the
	// seed alone. Groups average about 1.6 requests.
	slots := n*3/4 + 1
	groups := make([][]*request, slots)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for slot := w; slot < slots; slot += clients {
				groups[slot] = coldSlot(seed, slot)
			}
		}(w)
	}
	wg.Wait()
	var out []*request
	for slot := 0; len(out) < n; slot++ {
		if slot < slots {
			out = append(out, groups[slot]...)
		} else {
			out = append(out, coldSlot(seed, slot)...)
		}
	}
	return out[:n]
}

// coldSlot generates the group of cold-mix slot number slot.
func coldSlot(seed int64, slot int) []*request {
	rng := rand.New(rand.NewSource(seed*7919 + int64(slot)*104729 + 1))
	kind := coldSchedule[slot%len(coldSchedule)]
	group := coldGroup(rng, kind, slot/len(coldSchedule))
	for _, r := range group {
		r.Entry = -1
		r.NoCache = true
		r.encode()
	}
	return group
}

// ltlTemplates are LTL properties over the letters a, b (every
// generated system has at least two letters).
var ltlTemplates = []string{
	"G F a", "F G b", "G ( a -> F b )", "G F a & G F b", "F a",
	"G ( a -> X b )", "a U b", "G F ( a | b )", "F G ( a | b )", "G ! b",
}

var etaTemplates = []string{"G F x", "G F y", "G ( x -> F y )", "F G x", "G F ( x | y )"}

// pick returns table[i mod len(table)].
func pick[T any](table []T, i int) T { return table[i%len(table)] }

// Size, letter and density tables per group kind. Their lengths are
// pairwise coprime, so the combinations cycle with a long period.
var (
	smallStates  = []int{16, 20, 24, 30, 36, 42, 48}
	mediumStates = []int{48, 64, 80, 100, 128, 160, 56}
	largeStates  = []int{160, 200, 250, 320, 400, 180, 280}
	kthStates    = []int{32, 64, 128, 256, 400, 48, 96}
	letterCounts = []int{2, 3, 4}
	densities    = []float64{0.3, 0.35, 0.4, 0.45}
	lowDensities = []float64{0.25, 0.28, 0.3, 0.33}
)

// drawSystem draws seeded gen.Systems until one uses every one of its
// letters (homomorphisms and ω-regexes name them all, and the service
// rejects a hom over a letter the system text never mentions) and, when
// behavior is set, has an infinite behavior: abstraction requests on
// systems without one hit a known 500 (DEFECTS.md), so the mixes never
// send them. It returns the system's canonical text.
func drawSystem(rng *rand.Rand, letters, states int, density float64, behavior bool) string {
	for {
		sys := gen.System(rng, gen.Letters(letters), states, density)
		text := sys.FormatString()
		parsed, err := ts.ParseString(text)
		if err != nil || parsed.Alphabet().Size() < letters {
			continue
		}
		if behavior {
			if t, err := sys.Trim(); err != nil || t.NumStates() == 0 {
				continue
			}
		}
		return text
	}
}

// slotEndpoints returns 1–3 distinct endpoints of pool, chosen by the
// cycle number c.
func slotEndpoints(pool []string, c int) []string {
	k := 1 + c%3
	first := (c * 5) % len(pool)
	out := make([]string, k)
	for i := range out {
		out[i] = pool[(first+i)%len(pool)]
	}
	return out
}

var ltlEndpoints = []string{"all", "liveness", "safety", "satisfies", "portfolio", "statistical"}

// ltlGroup asks one (system, LTL property) at 1–3 endpoints.
func ltlGroup(text string, c int) []*request {
	p := pick(ltlTemplates, c)
	var out []*request
	for _, ep := range slotEndpoints(ltlEndpoints, c) {
		s := spec{System: text, LTL: p}
		switch ep {
		case "portfolio":
			s = spec{System: text, LTLs: []string{p, pick(ltlTemplates, c+3)}}
		case "statistical":
			s.Seed = int64(c) + 1
			s.Samples = 200
		}
		out = append(out, &request{Endpoint: ep, Spec: s})
	}
	return out
}

// kthOmega is the ω-regex "infinitely often, c comes exactly k letters
// after an a": its prefix language needs the last k letters, so
// pre(L∩P) determinizes to about 2^k subsets and the inclusion runs on
// the antichain kernel.
func kthOmega(k int) string {
	return "( ( a | b ) * a " + strings.Repeat("( a | b ) ", k-1) + "c ) ^w"
}

// coldGroup generates one group of kind for cycle number c.
func coldGroup(rng *rand.Rand, kind string, c int) []*request {
	switch kind {
	case "small":
		return ltlGroup(drawSystem(rng, pick(letterCounts, c), pick(smallStates, c), pick(densities, c), false), c)
	case "medium":
		return ltlGroup(drawSystem(rng, pick(letterCounts, c), pick(mediumStates, c), pick(lowDensities, c)+0.05, false), c)
	case "large":
		return ltlGroup(drawSystem(rng, 2+c%2, pick(largeStates, c), pick(lowDensities, c), false), c)
	case "stat":
		sys := drawSystem(rng, 3, pick(largeStates, c), pick(densities, c), false)
		return []*request{{Endpoint: "statistical", Spec: spec{System: sys, LTL: pick(ltlTemplates, c), Seed: int64(c) + 1, Samples: 400}}}
	case "kth":
		// Relative liveness only: the satisfaction and relative-safety
		// checks complement this nondeterministic property, which does
		// not finish in bounded time (DEFECTS.md).
		sys := drawSystem(rng, 3, pick(kthStates, c), pick(densities, c), false)
		return []*request{{Endpoint: "liveness", Spec: spec{System: sys, Omega: kthOmega(4 + c%9)}}}
	case "paper":
		return paperGroup(c)
	case "abstract":
		// Small systems only: abstraction ignores timeout_ms and its
		// determinization is exponential in the system size (DEFECTS.md).
		sys := drawSystem(rng, 3, 5+c%4, pick(densities, c), true)
		return []*request{{Endpoint: "abstraction", Spec: spec{System: sys, Hom: "a=>x, b=>y, c=>", Eta: pick(etaTemplates, c)}}}
	case "fair":
		sys := drawSystem(rng, 3, pick(smallStates, c), pick(densities, c), false)
		return []*request{{Endpoint: "fair-abstract", Spec: spec{
			System: sys, Hom: "a=>x, b=>y, c=>", Fairness: pick([]string{"strong", "weak"}, c), Eta: pick(etaTemplates, c),
		}}}
	}
	panic("unknown group kind " + kind)
}

// paperInstance is one of the paper's figures with a property and an
// abstraction the paper discusses.
type paperInstance struct {
	system, ltl, hom, eta string
}

var paperInstances = func() []paperInstance {
	fig2, err := paper.Fig2System()
	if err != nil {
		panic(err)
	}
	fig4, err := paper.Fig4System()
	if err != nil {
		panic(err)
	}
	hide := "request=>request, result=>result, reject=>reject, yes=>, no=>, lock=>, free=>"
	return []paperInstance{
		{fig2.FormatString(), "G F result", hide, "G F result"},
		{paper.Fig3System().FormatString(), "G F result",
			"request=>request, result=>result, reject=>reject, yes=>, no=>, lock=>", "G F result"},
		{fig4.FormatString(), "G F result", "request=>request, result=>result, reject=>reject", "G F ( result | reject )"},
		{paper.Section5System().FormatString(), "F ( a & X a )", "a=>a, b=>", "G F a"},
	}
}()

// paperGroup asks one paper figure at 1–3 of all eight endpoints; after
// the first group of a figure, its groups mostly take the pipeline-hit
// path.
func paperGroup(c int) []*request {
	in := pick(paperInstances, c)
	var out []*request
	for _, ep := range slotEndpoints(endpoints, c) {
		out = append(out, &request{Endpoint: ep, Spec: paperSpec(in, ep, c)})
	}
	return out
}

// paperSpec is the check of paper figure in at endpoint ep; c picks the
// fairness kind and the sampling seed.
func paperSpec(in paperInstance, ep string, c int) spec {
	switch ep {
	case "portfolio":
		return spec{System: in.system, LTLs: []string{in.ltl, "G F " + lastWord(in.ltl)}}
	case "abstraction":
		return spec{System: in.system, Hom: in.hom, Eta: in.eta}
	case "fair-abstract":
		return spec{System: in.system, Hom: in.hom, Fairness: pick([]string{"strong", "weak"}, c/4), Eta: in.eta}
	case "statistical":
		return spec{System: in.system, LTL: in.ltl, Seed: int64(c) + 1, Samples: 200}
	}
	return spec{System: in.system, LTL: in.ltl}
}

// coldWarm is cold-mix's set-up traffic: every paper figure at every
// endpoint, once, with no_cache like the timed mix. It makes set-up the
// time until a fresh server has answered each kind of check, not just
// the time to open a socket.
func coldWarm() []*request {
	var out []*request
	for i, in := range paperInstances {
		for _, ep := range endpoints {
			r := &request{Endpoint: ep, Spec: paperSpec(in, ep, 4*i), Entry: len(out), NoCache: true}
			r.encode()
			out = append(out, r)
		}
	}
	return out
}

// lastWord returns the last action name of an LTL text.
func lastWord(f string) string {
	fields := strings.Fields(strings.NewReplacer("(", " ", ")", " ").Replace(f))
	return fields[len(fields)-1]
}

// ---- hot-replay and routed ----------------------------------------------
//
// Why: a fixed working set, warmed during set-up, is replayed with a
// seeded Zipf skew against a report LRU smaller than the working set,
// so requests are served as report-LRU hits or persistent-store hits;
// decode, parse/canonicalize, the LRU and the store do nearly all the
// work and core is nearly idle. A small share of fresh, cheap checks
// writes through to the store and evicts LRU entries. Measured on seeds
// 21–25: 72% report-LRU hits, 25% store hits, 2.5% misses.
//
// routed sends the same sequence through the shard router over three
// backends that share one store volume, adding the router's key
// derivation (a second decode, parse and canonicalization of every
// system) and the proxy hop; comparing it with hot-replay on one seed
// isolates the router. Measured: 81% report-LRU hits, 15% store hits,
// 3% misses, 1% coalesced by the router.

const (
	hotEntries     = 240  // working-set size
	hotReportLRU   = 64   // report-LRU capacity per server, below hotEntries
	hotZipfS       = 1.1  // Zipf skew over popularity ranks
	hotFreshPermil = 25   // fresh checks per thousand requests
	minBodyBytes   = 300  // smallest working-set body
	maxBodyBytes   = 50e3 // largest working-set body
)

// hotSizeLadder spreads body sizes log-uniformly over [0.3 KB, 50 KB];
// rank r gets ladder[r%len], so every popularity band holds the same
// size mix whatever the seed.
var hotSizeLadder = func() []int {
	const steps = 12
	out := make([]int, steps)
	for i := range out {
		out[i] = int(minBodyBytes * math.Pow(maxBodyBytes/minBodyBytes, float64(i)/(steps-1)))
	}
	return out
}()

// hotEndpointOrder assigns endpoints to ranks; it is coprime with the
// size ladder so every endpoint sees every size band.
var hotEndpointOrder = []string{
	"all", "satisfies", "liveness", "statistical", "safety",
	"portfolio", "fair-abstract", "abstraction", "all", "liveness", "satisfies",
}

func hotReplay(seed int64, n int) (warm, timed []*request) {
	rng := rand.New(rand.NewSource(seed*104729 + 2))
	for r := 0; r < hotEntries; r++ {
		req := hotEntry(rng, r)
		req.Entry = r
		req.encode()
		warm = append(warm, req)
	}
	zipf := rand.NewZipf(rng, hotZipfS, 1, hotEntries-1)
	fresh := 0
	for len(timed) < n {
		if rng.Intn(1000) < hotFreshPermil {
			timed = append(timed, freshCheck(rng, fresh))
			fresh++
			continue
		}
		timed = append(timed, warm[zipf.Uint64()])
	}
	return warm, timed
}

// hotEntry builds working-set entry r: a cheap check whose body has
// about the ladder size for its rank. Large bodies are sparse two-letter
// systems, whose behaviors trim to little, so warming stays cheap.
func hotEntry(rng *rand.Rand, r int) *request {
	ep := hotEndpointOrder[r%len(hotEndpointOrder)]
	target := hotSizeLadder[r%len(hotSizeLadder)]
	letters, density := 2, 0.3
	if target < 4000 {
		letters = 3
	}
	switch ep {
	case "abstraction":
		// Abstraction ignores timeout_ms and determinizes the image;
		// keep its systems small whatever the rank's size band.
		sys := drawSystem(rng, 3, 6+rng.Intn(7), 0.35, true)
		return &request{Endpoint: ep, Spec: spec{System: sys, Hom: "a=>x, b=>y, c=>", Eta: pick(etaTemplates, r)}}
	case "fair-abstract":
		sys := sizedSystem(rng, letters, density, target)
		hom := "a=>x, b=>y"
		if letters == 3 {
			hom += ", c=>"
		}
		return &request{Endpoint: ep, Spec: spec{System: sys, Hom: hom, Fairness: pick([]string{"strong", "weak"}, r), Eta: pick(etaTemplates, r)}}
	}
	sys := sizedSystem(rng, letters, density, target)
	s := spec{System: sys, LTL: pick(ltlTemplates, r)}
	switch ep {
	case "portfolio":
		s = spec{System: sys, LTLs: []string{s.LTL, pick(ltlTemplates, r+3)}}
	case "statistical":
		s.Seed = int64(r) + 1
		s.Samples = 100
	}
	return &request{Endpoint: ep, Spec: s}
}

// sizedSystem generates a system whose text is about target bytes.
func sizedSystem(rng *rand.Rand, letters int, density float64, target int) string {
	// A rendered state costs about 2·letters·density transition lines of
	// ~12 bytes plus its own declaration.
	per := 2*float64(letters)*density*12 + 2
	states := int(float64(target) / per)
	if states < 3 {
		states = 3
	}
	return drawSystem(rng, letters, states, density, false)
}

// freshCheck is a small never-repeated check: a report-cache miss that
// runs the pipeline and writes its report through to the store.
func freshCheck(rng *rand.Rand, i int) *request {
	sys := drawSystem(rng, 2+i%2, pick(smallStates, i)/2, pick(densities, i), false)
	ep := []string{"satisfies", "liveness", "all"}[i%3]
	req := &request{Endpoint: ep, Entry: -1, Spec: spec{System: sys, LTL: pick(ltlTemplates, i)}}
	req.encode()
	return req
}
