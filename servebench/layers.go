package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"relive/internal/core"
	"relive/internal/ltl"
	"relive/internal/obs"
	"relive/internal/serve"
	"relive/internal/store"
	"relive/internal/ts"
)

// The traced run. It measures the workload twice on fresh set-ups over
// the same request sequence, each for half the window: first with the
// servers' default flight recorder and no benchmark spans (the
// untraced reference), then with the flight recorder keeping every
// check's span tree and the benchmark recording its own spans. The
// per-layer metrics come from the second half:
//
//   - flight records (queue_wait_ns, phase_ns, cache_path) and the span
//     trees the servers already emit (explored_states, product_states,
//     mc.sample, serve.abstraction, fair(L∩h⁻¹(¬P)));
//   - /metrics and /healthz counter deltas;
//   - replays of a sample of the requests through each layer's public
//     functions (Decode*Request, ts.ParseString, FormatString plus
//     SHA-256, ltl.Parse, json.Marshal of the response types, and
//     store.Get/Put on a copy of the volume), each timed in a span.
//
// Time metrics are means per request over the traced window, so the
// layers of one workload add up to (roughly) its mean latency.

// span is one benchmark span: a timed call into a layer, grouped under
// the request (Req) whose inputs it replays.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(req, parent int, name string, start time.Time, dur time.Duration) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartNS: start.Sub(l.origin).Nanoseconds(), DurNS: dur.Nanoseconds()})
	return id
}

// timed runs f inside a span and returns its duration.
func (l *spanLog) timed(req, parent int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	l.add(req, parent, name, start, d)
	return d
}

// selfTimes returns each span name's total self time: its duration
// minus the part of it its children cover.
func (l *spanLog) selfTimes() map[string]int64 {
	covered := make([]int64, len(l.spans)+1)
	for _, s := range l.spans {
		if s.Parent > 0 {
			covered[s.Parent] += s.DurNS
		}
	}
	out := map[string]int64{}
	for _, s := range l.spans {
		out[s.Name] += s.DurNS - covered[s.ID]
	}
	return out
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replaySample bounds how many requests the layer replays re-run.
const replaySample = 1500

func (b *bench) traced() (*result, error) {
	b.tag = uint32(b.o.seed)*2654435761 + 7
	half := time.Duration(b.o.seconds) * time.Second / 2

	// Untraced reference half.
	cfg := b.clusterConfig()
	c, warm, _, err := b.setup(cfg)
	if err != nil {
		return nil, err
	}
	ref, err := b.measure(c, warm, half, 1, false)
	c.close()
	if ref == nil {
		return nil, err
	}
	ref.refs = nil // only the traced half is replayed
	if err != nil {
		return b.failedResult(ref), err
	}

	// Traced half: every check's span tree is kept.
	cfg.flightRing = 1 << 17
	cfg.slow = time.Nanosecond
	cfg.flightTrees = 1 << 17
	c, warm, _, err = b.setup(cfg)
	if err != nil {
		return nil, err
	}
	defer c.close()
	m, err := b.measure(c, warm, half, 2, true)
	if m == nil {
		return nil, err
	}
	if err != nil || ref.tally.failed() > 0 || m.tally.failed() > 0 {
		if err == nil {
			err = fmt.Errorf("output check failed: untraced half %s; traced half %s", ref.tally.String(), m.tally.String())
		}
		return b.failedResult(m), err
	}

	log := &spanLog{origin: time.Now()}
	vals := map[string]metric{}
	set := func(name string, v float64, unit string) { vals[name] = metric{v, unit} }
	outs := m.win.outcomes
	var executed []*outcome
	for i := range outs {
		// Record each request as a root span at its measured time.
		log.spans = append(log.spans, span{ID: len(log.spans) + 1, Req: i, Name: "request." + outs[i].req.Endpoint, StartNS: outs[i].startNS, DurNS: outs[i].latNS})
		if !outs[i].coalesced {
			executed = append(executed, &outs[i])
		}
	}
	n := float64(len(executed))

	// Flight records and retained span trees.
	var queueNS, durNS int64
	phases := map[string]int64{}
	var preStates, explored, samples, settled, abstractionNS, fairNS int64
	byPath := map[string][]float64{}
	for _, o := range executed {
		rec := m.records[o.traceID]
		queueNS += rec.QueueWaitNS
		durNS += rec.DurationNS
		for p, ns := range rec.PhaseNS {
			phases[p] += ns
		}
		byPath[rec.CachePath] = append(byPath[rec.CachePath], float64(o.latNS)/1e6)
		if !rec.HasTrace {
			continue
		}
		dump, ok := c.flightTrace(o.traceID)
		if !ok {
			continue
		}
		for _, sp := range dump.Spans {
			explored += sp.Ints["explored_states"]
			switch sp.Name {
			case "pre(L∩P)":
				preStates += sp.Ints["product_states"]
			case "mc.sample":
				samples += sp.Ints["samples"]
				settled += sp.Ints["settled"]
			case "serve.abstraction":
				abstractionNS += sp.DurationNS
			case "fair(L∩h⁻¹(¬P))":
				fairNS += sp.DurationNS
			}
		}
	}
	perReqMS := func(ns int64) float64 { return float64(ns) / n / 1e6 }
	set("serve.admission_wait_ms", perReqMS(queueNS), "ms")
	set("core.trim_ms", perReqMS(phases[core.PhaseTrim]), "ms")
	set("core.property_ms", perReqMS(phases[core.PhaseProperty]), "ms")
	set("core.pre_product_ms", perReqMS(phases[core.PhasePre]), "ms")
	set("core.emptiness_ms", perReqMS(phases[core.PhaseEmptiness]), "ms")
	set("mc.sampling_ms", perReqMS(phases[core.PhaseSample]), "ms")
	set("core.pre_product_states", float64(preStates)/n, "states/req")
	set("buchi.explored_states", float64(explored)/n, "states/req")
	set("mc.settled_share", ratio(settled, samples), "share")
	set("hom.abstraction_ms", perReqMS(abstractionNS), "ms")
	set("fairness.fair_emptiness_ms", perReqMS(fairNS), "ms")

	// Cache paths, from the flight records and the counters.
	set("cache.report_hit_share", float64(len(byPath["report-hit"]))/n, "share")
	set("cache.pipeline_hit_share", float64(len(byPath["pipeline-hit"]))/n, "share")
	set("cache.system_hit_share", ratio(delta(m.before, m.after, mSystemHits), delta(m.before, m.after, mRequests)), "share")
	hitsD := storeDelta(m.before, m.after, storeHits)
	set("store.hit_share", ratio(hitsD, hitsD+storeDelta(m.before, m.after, storeMisses)), "share")
	set("store.writes_per_req", float64(storeDelta(m.before, m.after, storePuts))/n, "count/req")
	for _, p := range []string{"report-hit", "store-hit", "pipeline-hit", "miss"} {
		set("path."+p+".p50_ms", median(byPath[p]), "ms")
	}
	byEndpoint := map[string][]float64{}
	for _, o := range outs {
		byEndpoint[o.req.Endpoint] = append(byEndpoint[o.req.Endpoint], float64(o.latNS)/1e6)
	}
	for _, ep := range endpoints {
		set("endpoint."+ep+".p50_ms", median(byEndpoint[ep]), "ms")
	}

	// Layer replays on a sample of the executed requests.
	rp, err := b.replay(c, m, executed, log)
	if err != nil {
		return nil, err
	}
	set("serve.decode_us", rp.decode/1e3, "us")
	set("ts.parse_us", rp.parse/1e3, "us")
	set("ts.canon_us", rp.canon/1e3, "us")
	set("ltl.parse_us", rp.ltl/1e3, "us")
	set("serve.marshal_us", rp.marshal/1e3, "us")
	set("store.get_us", rp.get/1e3, "us")
	set("store.put_us", rp.put/1e3, "us")
	replayedNS := rp.decode + rp.parse + rp.canon + rp.ltl + rp.marshal + rp.get
	phaseNS := 0.0
	for _, ns := range phases {
		phaseNS += float64(ns)
	}
	set("serve.self_ms", (float64(durNS)-phaseNS-float64(queueNS))/n/1e6-replayedNS/1e6, "ms")

	// Router.
	overhead, skew := 0.0, 0.0
	if c.router != nil {
		if overhead, err = b.routerOverhead(c, executed); err != nil {
			return nil, err
		}
		var proxied []float64
		for k, v := range m.after.router {
			if strings.HasPrefix(k, mRouteProxied+"{") {
				proxied = append(proxied, float64(v-m.before.router[k]))
			}
		}
		sort.Float64s(proxied)
		if mu := mean(proxied); mu > 0 {
			skew = proxied[len(proxied)-1] / mu
		}
	}
	set("router.overhead_ms", overhead, "ms")
	set("router.backend_skew", skew, "ratio")

	// Tracing overhead and the Go runtime.
	refTput := float64(ref.tally.succeeded) / ref.win.elapsed.Seconds()
	tput := float64(m.tally.succeeded) / m.win.elapsed.Seconds()
	set("obs.trace_overhead_share", 1-tput/refTput, "share")
	set("go.gc_cpu_share", ref.win.rt.gcCPU/ref.win.rt.cpu, "share")

	defect, err := b.probeDefects(c)
	if err != nil {
		return nil, err
	}
	set("defects.abstraction_empty_500", defect, "count")

	spansPath := filepath.Join(b.o.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.o.seed))
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, err
	}
	if err := log.write(spansPath); err != nil {
		return nil, err
	}
	self := log.selfTimes()
	fmt.Printf("workload %s seed %d traced: untraced half %s; traced half %s; %d of %d requests joined to flight records\n",
		b.w.name, b.o.seed, ref.tally.String(), m.tally.String(), m.joined, len(executed))
	fmt.Printf("cache paths: %s\n", pathShares(m))
	fmt.Printf("spans: %d written to %s; replay self time: decode %.1fms, parse %.1fms, canon %.1fms\n",
		len(log.spans), spansPath, float64(self["serve.decode"])/1e6, float64(self["ts.parse"])/1e6, float64(self["ts.canon"])/1e6)
	return &result{Correct: true, Attempted: m.tally.attempted, Failed: 0, Metrics: vals}, nil
}

func (b *bench) failedResult(m *measured) *result {
	return &result{Correct: false, Attempted: m.tally.attempted, Failed: m.tally.failed(), Metrics: map[string]metric{}}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// flightTrace returns the span tree a backend's flight recorder kept
// for a trace ID.
func (c *cluster) flightTrace(id string) (obs.Dump, bool) {
	for _, be := range c.backends {
		if d, ok := be.s.FlightTrace(id); ok {
			return d, true
		}
	}
	return obs.Dump{}, false
}

// replayed is the mean time per executed request of each replayed
// layer, in nanoseconds.
type replayed struct {
	decode, parse, canon, ltl, marshal, get, put float64
}

// replay re-runs a strided sample of the executed requests through each
// layer's public functions, one span per call, and scales the sample
// means to per-request means. A layer the server skipped for a request
// (marshal on a report hit, store probes without a store) contributes
// nothing for it.
func (b *bench) replay(c *cluster, m *measured, executed []*outcome, log *spanLog) (replayed, error) {
	var st *store.Store
	if c.storeDir != "" {
		dir := filepath.Join(b.dir, "store-replay")
		if err := copyDir(c.storeDir, dir); err != nil {
			return replayed{}, fmt.Errorf("copying the store volume: %w", err)
		}
		var err error
		if st, err = store.Open(dir, store.Options{}); err != nil {
			return replayed{}, err
		}
	}
	stride := 1
	if len(executed) > replaySample {
		stride = (len(executed) + replaySample - 1) / replaySample
	}
	var tot replayed
	count := 0
	for i := 0; i < len(executed); i += stride {
		o := executed[i]
		rec := m.records[o.traceID]
		count++
		root := log.add(i, 0, "replay", time.Now(), 0)
		rootStart := time.Now()
		var req any
		var derr error
		tot.decode += float64(log.timed(i, root, "serve.decode", func() { req, derr = decode(o.req.Endpoint, o.req.Body) }))
		if derr != nil {
			return replayed{}, derr
		}
		sysText, ltls := texts(req)
		var sys *ts.System
		var perr error
		tot.parse += float64(log.timed(i, root, "ts.parse", func() { sys, perr = ts.ParseString(sysText) }))
		if perr != nil {
			return replayed{}, perr
		}
		tot.canon += float64(log.timed(i, root, "ts.canon", func() { sha256.Sum256([]byte(sys.FormatString())) }))
		for _, f := range ltls {
			var lerr error
			tot.ltl += float64(log.timed(i, root, "ltl.parse", func() { _, lerr = ltl.Parse(f) }))
			if lerr != nil {
				return replayed{}, lerr
			}
		}
		fresh := rec.CachePath == "pipeline-hit" || rec.CachePath == "miss"
		if fresh {
			v, err := responseValue(o.req.Endpoint, m.reference(o))
			if err != nil {
				return replayed{}, err
			}
			var merr error
			tot.marshal += float64(log.timed(i, root, "serve.marshal", func() { _, merr = json.Marshal(v) }))
			if merr != nil {
				return replayed{}, merr
			}
		}
		if st != nil && rec.CachePath != "report-hit" && !o.req.NoCache {
			tot.get += float64(log.timed(i, root, "store.get", func() { st.Get("report", rec.Hash) }))
			if fresh {
				var serr error
				tot.put += float64(log.timed(i, root, "store.put", func() { serr = st.Put("report", rec.Hash, m.reference(o)) }))
				if serr != nil {
					return replayed{}, serr
				}
			}
		}
		log.spans[root-1].DurNS = time.Since(rootStart).Nanoseconds()
	}
	if count == 0 {
		return tot, nil
	}
	k := float64(count)
	return replayed{tot.decode / k, tot.parse / k, tot.canon / k, tot.ltl / k, tot.marshal / k, tot.get / k, tot.put / k}, nil
}

func decode(endpoint string, body []byte) (any, error) {
	switch endpoint {
	case "all", "liveness", "safety", "satisfies":
		return serve.DecodeCheckRequest(body)
	case "portfolio":
		return serve.DecodePortfolioRequest(body)
	case "abstraction":
		return serve.DecodeAbstractionRequest(body)
	case "fair-abstract":
		return serve.DecodeFairAbstractRequest(body)
	case "statistical":
		return serve.DecodeStatisticalRequest(body)
	}
	return nil, fmt.Errorf("unknown endpoint %q", endpoint)
}

// texts returns a decoded request's system text and the LTL texts the
// service parses for it.
func texts(req any) (string, []string) {
	nonEmpty := func(ts ...string) []string {
		var out []string
		for _, t := range ts {
			if t != "" {
				out = append(out, t)
			}
		}
		return out
	}
	switch r := req.(type) {
	case *serve.CheckRequest:
		return r.System, nonEmpty(r.LTL)
	case *serve.PortfolioRequest:
		return r.System, nonEmpty(r.LTLs...)
	case *serve.AbstractionRequest:
		return r.System, nonEmpty(r.Eta)
	case *serve.FairAbstractRequest:
		return r.System, nonEmpty(r.Eta)
	case *serve.StatisticalRequest:
		return r.System, nonEmpty(r.LTL)
	}
	return "", nil
}

// responseValue decodes a response body into the service's response
// type for the endpoint, so the marshal replay encodes the same value.
func responseValue(endpoint string, body []byte) (any, error) {
	var v any
	switch endpoint {
	case "all":
		v = &core.Report{}
	case "liveness":
		v = &serve.LivenessResponse{}
	case "safety":
		v = &serve.SafetyResponse{}
	case "satisfies":
		v = &serve.SatisfiesResponse{}
	case "portfolio":
		v = &serve.PortfolioResponse{}
	case "abstraction":
		v = &serve.AbstractionResponse{}
	case "fair-abstract":
		v = &core.FairAbstractReport{}
	case "statistical":
		v = &core.StatisticalReport{}
	default:
		return nil, fmt.Errorf("unknown endpoint %q", endpoint)
	}
	return v, json.Unmarshal(body, v)
}

// routerOverhead sends a sample of the traced requests again, once
// through the router and once straight to the backend that answered
// them, alternating which goes first, and returns the median of the
// per-request differences in milliseconds.
func (b *bench) routerOverhead(c *cluster, executed []*outcome) (float64, error) {
	const probes = 200
	stride := 1
	if len(executed) > probes {
		stride = len(executed) / probes
	}
	var diffs []float64
	var rbuf, dbuf bytes.Buffer
	for i, k := 0, 0; i < len(executed) && k < probes; i, k = i+stride, k+1 {
		o := executed[i]
		if o.backend == "" {
			continue
		}
		var routed, direct outcome
		if k%2 == 0 {
			routed = send(b.client, c.entry, o.req, traceID(b.tag, 3, i), &rbuf)
			direct = send(b.client, o.backend, o.req, traceID(b.tag, 4, i), &dbuf)
		} else {
			direct = send(b.client, o.backend, o.req, traceID(b.tag, 4, i), &dbuf)
			routed = send(b.client, c.entry, o.req, traceID(b.tag, 3, i), &rbuf)
		}
		if routed.err != nil || direct.err != nil || routed.status != http.StatusOK || direct.status != http.StatusOK {
			return 0, fmt.Errorf("router probe %d: routed %d %v, direct %d %v", i, routed.status, routed.err, direct.status, direct.err)
		}
		if !bytes.Equal(rbuf.Bytes(), dbuf.Bytes()) {
			return 0, fmt.Errorf("router probe %d: routed and direct bodies differ", i)
		}
		diffs = append(diffs, float64(routed.latNS-direct.latNS)/1e6)
	}
	return median(diffs), nil
}

// probeDefects sends the reproducer of the known abstraction defect on
// systems without infinite behavior (DEFECTS.md) and returns 1 while
// the service still answers it with 500, 0 once it answers otherwise.
func (b *bench) probeDefects(c *cluster) (float64, error) {
	r := &request{Endpoint: "abstraction", Entry: -1, NoCache: true, Spec: spec{
		System: "init s0\ns0 a s1\n", Hom: "a=>x", Eta: "G F x",
	}}
	r.encode()
	var buf bytes.Buffer
	o := send(b.client, c.entry, r, traceID(b.tag, 5, 0), &buf)
	if o.err != nil {
		return 0, o.err
	}
	if o.status == http.StatusInternalServerError {
		return 1, nil
	}
	return 0, nil
}
