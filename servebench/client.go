package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"relive/internal/serve"
)

// outcome is one request as the client saw it. Only the set-up's
// warm-up keeps bodies: a timed window checks each body or reduces it to
// a digest as it arrives, so the driver holds a small fixed-size record
// per response rather than the responses themselves.
type outcome struct {
	req       *request
	startNS   int64 // since the window origin
	latNS     int64 // send to last response byte
	status    int
	body      []byte   // kept only by the warm-up
	digest    [32]byte // SHA-256 of the body
	warmMatch bool     // a working-set entry's body equals its warm-up body
	excerpt   string   // the start of a non-200 body, for the failure report
	cache     string   // X-Relive-Cache
	coalesced bool     // X-Relive-Coalesced
	backend   string   // X-Relive-Backend
	traceID   string
	err       error
}

func (o *outcome) hit() bool { return o.cache == "hit" }

// keepBody keeps a copy of the body in the outcome.
func keepBody(o *outcome, body []byte) { o.body = append([]byte(nil), body...) }

// judgeAgainst returns the body handler of a timed window: it compares a
// working-set entry's body with its warm-up body and keeps the SHA-256
// digest of every body for the output check.
func judgeAgainst(warm map[int][]byte) func(*outcome, []byte) {
	return func(o *outcome, body []byte) {
		o.digest = sha256.Sum256(body)
		if o.req.Entry >= 0 {
			ref, ok := warm[o.req.Entry]
			o.warmMatch = ok && bytes.Equal(body, ref)
		}
	}
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     time.Minute,
	}}
}

// traceID derives a request's W3C trace ID from the run tag and the
// request's position, so the flight records of every server can be
// joined to the client's view.
func traceID(tag uint32, phase, i int) string {
	return fmt.Sprintf("%08x%08x%016x", tag, uint32(phase)+1, uint64(i)+1)
}

// send posts one request and reads the whole response into buf, which
// holds the body until its next use.
func send(client *http.Client, base string, r *request, tid string, buf *bytes.Buffer) outcome {
	o := outcome{req: r, traceID: tid}
	buf.Reset()
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/check/"+r.Endpoint, bytes.NewReader(r.Body))
	if err != nil {
		o.err = err
		return o
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(serve.TraceHeader, "00-"+tid+"-00000000000000a1-01")
	start := time.Now()
	resp, err := client.Do(hr)
	if err != nil {
		o.err = err
		o.latNS = time.Since(start).Nanoseconds()
		return o
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.latNS = time.Since(start).Nanoseconds()
	if err != nil {
		o.err = err
	}
	o.status = resp.StatusCode
	if o.status != http.StatusOK {
		o.excerpt = trim(buf.Bytes())
	}
	o.cache = resp.Header.Get(serve.CacheHeader)
	o.coalesced = resp.Header.Get(serve.CoalescedHeader) != ""
	o.backend = resp.Header.Get(serve.BackendHeader)
	return o
}

// window is the result of one closed-loop measurement.
type window struct {
	outcomes []outcome // in sending order
	elapsed  time.Duration
	rt       runtimeDelta
}

// closedLoop runs clients closed-loop clients over seq for dur: each
// client takes the next request in sequence order and sends it only
// after its previous response has been read. No request starts after
// dur; requests in flight at dur are waited for and counted. With wrap
// the clients start over at the front of seq when they reach its end
// (the generated sequences are sized to last a window on the host the
// benchmark was sized on, so only a much faster program wraps);
// without it they stop there. onBody sees each 200 response's body
// before the client reuses its buffer.
func closedLoop(client *http.Client, base string, seq []*request, dur time.Duration, wrap bool, tag uint32, phase int, onBody func(*outcome, []byte)) window {
	var next atomic.Int64
	per := make([][]outcome, clients)
	idx := make([][]int, clients)
	rs := startRuntimeSampler(dur / subWindows)
	origin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Since(origin) < dur {
				i := int(next.Add(1) - 1)
				if i >= len(seq) && !wrap {
					return
				}
				start := time.Since(origin).Nanoseconds()
				o := send(client, base, seq[i%len(seq)], traceID(tag, phase, i), &buf)
				o.startNS = start
				if o.err == nil && o.status == http.StatusOK {
					onBody(&o, buf.Bytes())
				}
				per[c] = append(per[c], o)
				idx[c] = append(idx[c], i)
			}
		}(c)
	}
	wg.Wait()
	w := window{elapsed: time.Since(origin), rt: rs.stop()}
	n := int(next.Load())
	if n > len(seq) && !wrap {
		n = len(seq)
	}
	w.outcomes = make([]outcome, n)
	for c := range per {
		for k, o := range per[c] {
			w.outcomes[idx[c][k]] = o
		}
	}
	return w
}

// runtimeDelta is the Go runtime's view of a window: heap bytes
// allocated, the peak live heap of each span of the window, and GC CPU
// time against all CPU time.
type runtimeDelta struct {
	allocBytes uint64
	spanPeaks  []float64 // peak live heap bytes per span
	gcCPU, cpu float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// runtimeSampler polls the live heap every few milliseconds (it changes
// only at GC, so the poll catches every value) until stopped, keeping
// the peak of each span of the given length.
type runtimeSampler struct {
	start []metrics.Sample
	done  chan struct{}
	out   chan []float64
}

func startRuntimeSampler(span time.Duration) *runtimeSampler {
	rs := &runtimeSampler{start: readRuntime(), done: make(chan struct{}), out: make(chan []float64, 1)}
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		peaks := make([]float64, subWindows)
		origin := time.Now()
		for {
			metrics.Read(s)
			j := int(time.Since(origin) / span)
			if j >= subWindows {
				j = subWindows - 1
			}
			if v := float64(s[0].Value.Uint64()); v > peaks[j] {
				peaks[j] = v
			}
			select {
			case <-rs.done:
				rs.out <- peaks
				return
			case <-tick.C:
			}
		}
	}()
	return rs
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func (rs *runtimeSampler) stop() runtimeDelta {
	end := readRuntime()
	close(rs.done)
	return runtimeDelta{
		allocBytes: uint64(sampleValue(end[0]) - sampleValue(rs.start[0])),
		spanPeaks:  <-rs.out,
		gcCPU:      sampleValue(end[1]) - sampleValue(rs.start[1]),
		cpu:        sampleValue(end[2]) - sampleValue(rs.start[2]),
	}
}

// ---- order statistics ----------------------------------------------------

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var t float64
	for _, v := range values {
		t += v
	}
	return t / float64(len(values))
}

// tailQuantile is the tail latency's percentile. It is fixed, not
// chosen per run from the sample count, so the metric means the same
// thing on every run; each workload completes thousands of requests in
// a window, well above the 1000 that put ten samples beyond p99, and
// the run prints the count beyond it.
const tailQuantile = 0.99

// subWindows is how many equal spans of the window throughput and
// median latency are computed over. Each is reported as the median
// across spans, so a burst of interference from outside the program
// moves one span rather than the result.
const subWindows = 10

// spanStats returns the median over the window's spans of requests
// completed per second and of the spans' median latencies (ms). A
// request belongs to the span its response completed in; the last span
// runs to the end of the window, including the requests still in flight
// at the deadline. Failed requests count as not completed and, for
// latency, as infinitely slow.
func spanStats(w window, ok []bool, dur time.Duration) (rps, p50 float64) {
	span := dur.Nanoseconds() / subWindows
	done := make([]float64, subWindows)
	lats := make([][]float64, subWindows)
	for i, o := range w.outcomes {
		j := int((o.startNS + o.latNS) / span)
		if j >= subWindows {
			j = subWindows - 1
		}
		lat := float64(o.latNS) / 1e6
		if ok[i] {
			done[j]++
		} else {
			lat = math.Inf(1)
		}
		lats[j] = append(lats[j], lat)
	}
	rates := make([]float64, subWindows)
	medians := make([]float64, subWindows)
	for j := range rates {
		length := float64(span) / 1e9
		if j == subWindows-1 {
			length = w.elapsed.Seconds() - float64(j*int(span))/1e9
		}
		rates[j] = done[j] / length
		medians[j] = median(lats[j])
	}
	return median(rates), median(medians)
}
