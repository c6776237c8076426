// Command servebench is the rlserve service benchmark: a single-process
// driver that boots in-process rlserve servers (and, for the routed
// workload, a shard router over three store-sharing backends), sends a
// seeded closed-loop request mix from two clients, checks every answer
// against the library and the servers' own counters, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output.
//
//	bash servebench/run.sh --workload hot-replay --seed 3 --seconds 10 --trace 0
//
// Workloads and their reasons are defined in workload.go and listed in
// BENCHMARK.json; known defects the mix steers around are recorded in
// DEFECTS.md.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"relive/internal/serve"
)

// heldOutSeed is never used while tuning the benchmark or a change;
// confirm a claimed gain on it before accepting the claim.
const heldOutSeed = 9001

// clients is the closed-loop concurrency: one client per core of the
// two-core host the benchmark was sized on.
const clients = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: cold-mix, hot-replay or routed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window, seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.work, "work", ".bench_build/servebench", "scratch directory for store volumes and span files")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be at least 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
	}
	if res == nil {
		os.Exit(1)
	}
	printResult(res)
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// printResult prints every metric by name with its unit, then the
// result object as the last line.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Println(string(line))
}

func run(o options) (*result, error) {
	// Seed self-test: the same seed must give a byte-identical request
	// sequence, a different seed a different one.
	if err := seedSelfTest(o.workload, o.seed); err != nil {
		return nil, err
	}
	w, err := makeWorkload(o.workload, o.seed, sequenceLength(o.workload, o.seconds))
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{o: o, w: w, dir: dir, client: newHTTPClient(), driverHeap: liveHeap()}
	defer b.client.CloseIdleConnections()
	rampCPU(rampTime)
	if o.trace {
		return b.traced()
	}
	return b.endToEnd()
}

// sequenceLength sizes the generated timed sequence to last the window
// at about 1.5 times the fastest rate seen on the two-core host the
// benchmark was sized on (about 680 and 2400 requests per second on
// cold-mix and hot-replay), so a faster program still sends fresh
// requests; a much faster one wraps around to the front of it.
func sequenceLength(workload string, seconds int) int {
	if workload == wlColdMix {
		return 1000*seconds + 500
	}
	return 3600*seconds + 1000
}

func seedSelfTest(name string, seed int64) error {
	const n = 400
	a, err := makeWorkload(name, seed, n)
	if err != nil {
		return err
	}
	again, _ := makeWorkload(name, seed, n)
	other, _ := makeWorkload(name, seed+1, n)
	if a.digest() != again.digest() {
		return fmt.Errorf("seed self-test: seed %d gave two different request sequences", seed)
	}
	if a.digest() == other.digest() {
		return fmt.Errorf("seed self-test: seeds %d and %d gave the same request sequence", seed, seed+1)
	}
	return nil
}

// rampTime is how long both cores spin before set-up. An idle host's
// cores run at a fraction of their speed for the first second or so of
// load; without the ramp, set-up and the first seconds of the window
// measure that wake-up instead of the program.
const rampTime = 2 * time.Second

// rampCPU keeps every client core busy for d with work that touches no
// part of the program under test.
func rampCPU(d time.Duration) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 1<<14)
			for start := time.Now(); time.Since(start) < d; {
				sum := sha256.Sum256(buf)
				buf[0] = sum[0]
			}
		}()
	}
	wg.Wait()
}

// bench holds one run's state.
type bench struct {
	o      options
	w      *workload
	dir    string
	client *http.Client
	tag    uint32
	boots  int
	// driverHeap is the live heap before any server starts: mostly the
	// generated request sequences, which heap_peak_mib leaves out.
	driverHeap float64
}

func (b *bench) clusterConfig() clusterConfig {
	switch b.w.name {
	case wlColdMix:
		return clusterConfig{backends: 1}
	case wlHotReplay:
		return clusterConfig{backends: 1, withStore: true, reportLRU: hotReportLRU}
	default:
		return clusterConfig{backends: 3, withStore: true, routed: true, reportLRU: hotReportLRU}
	}
}

// A run sets up at least setupRepeats times and until setupBudget has
// passed; setup_s is the median. The budget gives a set-up of a few
// milliseconds (cold-mix) as many samples as its noise needs, at no
// cost to the workloads whose set-up takes most of a second.
const (
	setupRepeats = 5
	setupBudget  = 2 * time.Second
)

// setup boots the cluster and warms the working set, returning the
// cluster, the warm-up bodies by entry, and the set-up time.
func (b *bench) setup(cfg clusterConfig) (*cluster, map[int][]byte, time.Duration, error) {
	b.boots++
	start := time.Now()
	c, err := bootCluster(cfg, filepath.Join(b.dir, fmt.Sprintf("store-%d", b.boots)))
	if err != nil {
		return nil, nil, 0, err
	}
	if _, err := health(b.client, c.entry); err != nil {
		c.close()
		return nil, nil, 0, err
	}
	warm := map[int][]byte{}
	if len(b.w.warm) > 0 {
		win := closedLoop(b.client, c.entry, b.w.warm, time.Hour, false, b.tag, 100+b.boots, keepBody)
		for _, o := range win.outcomes {
			if o.err != nil || o.status != http.StatusOK {
				c.close()
				return nil, nil, 0, fmt.Errorf("warming entry %d (%s): status %d, %v: %s", o.req.Entry, o.req.Endpoint, o.status, o.err, o.excerpt)
			}
			warm[o.req.Entry] = o.body
		}
	}
	return c, warm, time.Since(start), nil
}

// setupMedian sets up repeatedly, keeping the last cluster.
func (b *bench) setupMedian(cfg clusterConfig) (*cluster, map[int][]byte, float64, error) {
	var times []float64
	var c *cluster
	var warm map[int][]byte
	for start := time.Now(); len(times) < setupRepeats || time.Since(start) < setupBudget; {
		if c != nil {
			c.close()
		}
		var d time.Duration
		var err error
		if c, warm, d, err = b.setup(cfg); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return c, warm, median(times), nil
}

// measured is one timed window with its checks applied.
type measured struct {
	win     window
	tally   tally
	ok      []bool
	before  snapshot
	after   snapshot
	records map[string]serve.CheckRecord
	joined  int
	warm    map[int][]byte    // warm-up bodies by working-set entry
	refs    map[string][]byte // library bodies by refKey
}

// reference returns the body o had to be byte-equal to.
func (m *measured) reference(o *outcome) []byte {
	if o.req.Entry >= 0 {
		return m.warm[o.req.Entry]
	}
	return m.refs[refKey(o.req)]
}

// measure runs one timed window on c and applies the output check and
// the counter agreement.
func (b *bench) measure(c *cluster, warm map[int][]byte, dur time.Duration, phase int, full bool) (*measured, error) {
	m := &measured{warm: warm}
	var err error
	if m.before, err = c.snapshot(b.client); err != nil {
		return nil, err
	}
	m.win = closedLoop(b.client, c.entry, b.w.timed, dur, true, b.tag, phase, judgeAgainst(warm))
	// Write-through store puts run after the response is written; let
	// them land before reading the counters.
	time.Sleep(20 * time.Millisecond)
	if m.after, err = c.snapshot(b.client); err != nil {
		return nil, err
	}
	m.records = c.flightIndex()
	m.ok = make([]bool, len(m.win.outcomes))
	lib := newLibrary()
	if m.tally, m.refs, err = check(m.win.outcomes, lib, m.ok); err != nil {
		return nil, err
	}
	// The warm-up bodies themselves must be the library's answers.
	for _, r := range b.w.warm {
		want, err := lib.body(r)
		if err != nil {
			return nil, fmt.Errorf("library check for working-set entry %d: %w", r.Entry, err)
		}
		if string(want) != string(warm[r.Entry]) {
			m.tally.fail("warm_body_mismatch", fmt.Sprintf("entry %d (%s): warmed %q, want %q", r.Entry, r.Endpoint, trim(warm[r.Entry]), trim(want)))
		}
	}
	m.joined, err = agreement(m.win.outcomes, m.before, m.after, m.records, full)
	return m, err
}

func (b *bench) endToEnd() (*result, error) {
	b.tag = uint32(b.o.seed)*2654435761 + 1
	c, warm, setupS, err := b.setupMedian(b.clusterConfig())
	if err != nil {
		return nil, err
	}
	defer c.close()
	dur := time.Duration(b.o.seconds) * time.Second
	m, err := b.measure(c, warm, dur, 1, false)
	if m == nil {
		return nil, err
	}
	res := &result{
		Correct:   err == nil && m.tally.failed() == 0,
		Attempted: m.tally.attempted,
		Failed:    m.tally.failed(),
		Metrics:   map[string]metric{},
	}
	lat := make([]float64, len(m.win.outcomes))
	for i, o := range m.win.outcomes {
		lat[i] = float64(o.latNS) / 1e6
		if !m.ok[i] {
			lat[i] = math.Inf(1) // a failed request misses every latency limit
		}
	}
	sort.Float64s(lat)
	q := tailQuantile
	if beyond := len(lat) - int(math.Ceil(q*float64(len(lat)))); beyond < 10 {
		err = fmt.Errorf("only %d samples lie beyond p%g; the window is too short for the tail metric", beyond, 100*q)
		res.Correct = false
	}
	completed := float64(m.tally.succeeded)
	rps, p50 := spanStats(m.win, m.ok, dur)
	res.Metrics["throughput_rps"] = metric{rps, "1/s"}
	res.Metrics["latency_p50_ms"] = metric{p50, "ms"}
	res.Metrics["latency_tail_ms"] = metric{quantile(lat, q), "ms"}
	res.Metrics["ok_share"] = metric{completed / float64(m.tally.attempted), "share"}
	res.Metrics["alloc_kib_per_req"] = metric{float64(m.win.rt.allocBytes) / 1024 / math.Max(completed, 1), "KiB"}
	res.Metrics["heap_peak_mib"] = metric{(median(m.win.rt.spanPeaks) - b.driverHeap) / (1 << 20), "MiB"}
	res.Metrics["setup_s"] = metric{setupS, "s"}

	fmt.Printf("workload %s seed %d: %s in %.2fs (%d clients, closed loop)\n", b.w.name, b.o.seed, m.tally.String(), m.win.elapsed.Seconds(), clients)
	fmt.Printf("latency_tail_ms is p%g over %d samples (%d beyond it)\n", 100*q, len(lat), len(lat)-int(math.Ceil(q*float64(len(lat)))))
	fmt.Printf("cache paths: %s\n", pathShares(m))
	if m.tally.firstFailure != "" {
		fmt.Printf("first failure: %s\n", m.tally.firstFailure)
	}
	return res, err
}

// pathShares renders the measured share of requests per cache path:
// hits split into report-LRU and store hits by the servers' counters,
// misses split into pipeline hits and full misses by the flight records
// the rings still held.
func pathShares(m *measured) string {
	n := float64(len(m.win.outcomes))
	rh := float64(delta(m.before, m.after, mReportHits))
	sh := float64(delta(m.before, m.after, mStoreHits))
	var coal, pipe, miss, seenMiss float64
	for _, o := range m.win.outcomes {
		if o.coalesced {
			coal++
			continue
		}
		if o.hit() {
			continue
		}
		if r, ok := m.records[o.traceID]; ok {
			seenMiss++
			if r.CachePath == "pipeline-hit" {
				pipe++
			} else {
				miss++
			}
		}
	}
	misses := n - coal - rh - sh
	pipeShare, missShare := 0.0, 0.0
	if seenMiss > 0 {
		pipeShare, missShare = misses*pipe/seenMiss/n, misses*miss/seenMiss/n
	}
	return fmt.Sprintf("report-hit %.3f, store-hit %.3f, pipeline-hit %.3f, miss %.3f, coalesced %.3f",
		rh/n, sh/n, pipeShare, missShare, coal/n)
}
