package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"relive/internal/serve"
	"relive/internal/store"
)

// node is one in-process HTTP server on a loopback port.
type node struct {
	url string
	hs  *http.Server
	err chan error
}

func startNode(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, err: make(chan error, 1)}
	go func() { n.err <- n.hs.Serve(ln) }()
	return n, nil
}

// stop closes the server and waits for its serve loop to return.
func (n *node) stop() {
	n.hs.Close()
	if err := <-n.err; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "servebench: server %s: %v\n", n.url, err)
	}
}

// backend is one rlserve replica.
type backend struct {
	s *serve.Server
	n *node
}

// cluster is the system under test: one server (cold-mix, hot-replay)
// or three store-sharing backends behind a router (routed), built the
// way internal/serve/cluster_test.go builds them.
type cluster struct {
	backends []*backend
	router   *serve.Router
	rnode    *node
	storeDir string // shared store volume, "" without persistence
	entry    string // base URL the clients send to
}

type clusterConfig struct {
	backends    int
	withStore   bool
	routed      bool
	reportLRU   int
	flightRing  int           // 0 = server default
	slow        time.Duration // flight-recorder slow threshold, 0 = default
	flightTrees int
}

func bootCluster(cfg clusterConfig, storeDir string) (*cluster, error) {
	c := &cluster{}
	if cfg.withStore {
		c.storeDir = storeDir
	}
	var urls []string
	for i := 0; i < cfg.backends; i++ {
		sc := serve.Config{
			ReportEntries: cfg.reportLRU,
			FlightEntries: cfg.flightRing,
			SlowThreshold: cfg.slow,
			FlightTraces:  cfg.flightTrees,
		}
		if cfg.withStore {
			st, err := store.Open(storeDir, store.Options{})
			if err != nil {
				c.close()
				return nil, err
			}
			sc.Store = st
		}
		s := serve.New(sc)
		n, err := startNode(s.Handler())
		if err != nil {
			c.close()
			return nil, err
		}
		c.backends = append(c.backends, &backend{s: s, n: n})
		urls = append(urls, n.url)
	}
	c.entry = urls[0]
	if cfg.routed {
		rt, err := serve.NewRouter(serve.RouterConfig{
			Backends:       urls,
			HealthInterval: 50 * time.Millisecond,
			HealthTimeout:  time.Second,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.router = rt
		if c.rnode, err = startNode(rt.Handler()); err != nil {
			c.close()
			return nil, err
		}
		c.entry = c.rnode.url
		if err := c.waitHealthy(); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		healthy := 0
		for _, b := range c.router.Backends() {
			if b.Healthy {
				healthy++
			}
		}
		if healthy == len(c.backends) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("router never saw all %d backends healthy", len(c.backends))
}

// close stops every server and the router, and removes the store volume.
func (c *cluster) close() {
	if c.rnode != nil {
		c.rnode.stop()
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, b := range c.backends {
		b.n.stop()
	}
	if c.storeDir != "" {
		os.RemoveAll(c.storeDir)
	}
}

// counters scrapes a server's /metrics counters (name → value).
func counters(client *http.Client, url string) (map[string]int64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		if strings.HasPrefix(line, "#") || len(f) != 2 {
			continue
		}
		if base, _, _ := strings.Cut(f[0], "{"); !strings.HasSuffix(base, "_total") {
			continue
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		out[f[0]] += v
	}
	return out, sc.Err()
}

// health reads a server's /healthz.
func health(client *http.Client, url string) (serve.HealthResponse, error) {
	var h serve.HealthResponse
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		return h, fmt.Errorf("healthz %s: %w", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(data, &h)
}

// serverView is one backend's /metrics counters and /healthz body at
// one instant, for the counter-agreement check.
type serverView struct {
	counters map[string]int64
	health   serve.HealthResponse
}

// copyDir copies a store volume for the store replays, so they never
// touch the volume the servers used.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
