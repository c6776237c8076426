package main

import (
	"fmt"
	"net/http"
	"strings"

	"relive/internal/serve"
)

// Counter names as rlserve exposes them on /metrics.
const (
	mRequests     = "relive_serve_requests_total"
	mReportHits   = "relive_serve_cache_report_hits_total"
	mStoreHits    = "relive_serve_store_report_hits_total"
	mSystemHits   = "relive_serve_cache_system_hits_total"
	mRouteReqs    = "relive_route_requests_total"
	mRouteCoal    = "relive_route_coalesced_total"
	mRouteProxied = "relive_route_proxied_total"
)

// snapshot is every server's counters and health, plus the router's
// counters, at one instant.
type snapshot struct {
	servers []serverView
	router  map[string]int64
}

func (c *cluster) snapshot(client *http.Client) (snapshot, error) {
	var s snapshot
	for _, b := range c.backends {
		m, err := counters(client, b.n.url)
		if err != nil {
			return s, err
		}
		h, err := health(client, b.n.url)
		if err != nil {
			return s, err
		}
		s.servers = append(s.servers, serverView{counters: m, health: h})
	}
	if c.rnode != nil {
		var err error
		if s.router, err = counters(client, c.rnode.url); err != nil {
			return s, err
		}
	}
	return s, nil
}

// delta sums a counter's growth over every server.
func delta(before, after snapshot, name string) int64 {
	var d int64
	for i := range after.servers {
		d += after.servers[i].counters[name] - before.servers[i].counters[name]
	}
	return d
}

// storeDelta sums the growth of a store statistic over every server.
func storeDelta(before, after snapshot, field func(h serve.HealthResponse) int64) int64 {
	var d int64
	for i := range after.servers {
		if after.servers[i].health.Store == nil {
			continue
		}
		d += field(after.servers[i].health) - field(before.servers[i].health)
	}
	return d
}

func storeHits(h serve.HealthResponse) int64   { return h.Store.Hits }
func storeMisses(h serve.HealthResponse) int64 { return h.Store.Misses }
func storePuts(h serve.HealthResponse) int64   { return h.Store.Puts }

// flightIndex joins the flight records of every backend by trace ID.
func (c *cluster) flightIndex() map[string]serve.CheckRecord {
	out := map[string]serve.CheckRecord{}
	for _, b := range c.backends {
		for _, r := range b.s.FlightRecords() {
			out[r.TraceID] = r
		}
	}
	return out
}

// agreement cross-checks the client's view of a window against the
// servers': the cache path each response announced (X-Relive-Cache,
// X-Relive-Coalesced) against the flight records' cache_path, the
// /metrics cache and store counters, and the store statistics in
// /healthz. full says the flight rings held every request of the
// window, so every request must be found in them. It returns the
// number of requests joined to a flight record.
func agreement(outcomes []outcome, before, after snapshot, records map[string]serve.CheckRecord, full bool) (int, error) {
	var executed, hits, coalesced int64
	for i := range outcomes {
		o := &outcomes[i]
		if o.coalesced {
			coalesced++
			continue
		}
		executed++
		if o.hit() {
			hits++
		}
	}
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	if d := delta(before, after, mRequests); d != executed {
		fail("servers counted %d check requests (%s), the client sent %d that were not coalesced", d, mRequests, executed)
	}
	reportHits, storeHitCount := delta(before, after, mReportHits), delta(before, after, mStoreHits)
	if reportHits+storeHitCount != hits {
		fail("client saw %d %s: hit responses, servers counted %d report-LRU + %d store hits", hits, serve.CacheHeader, reportHits, storeHitCount)
	}
	if d := storeDelta(before, after, storeHits); after.servers[0].health.Store != nil && d != storeHitCount {
		fail("/healthz store hits grew by %d, %s by %d", d, mStoreHits, storeHitCount)
	}
	if after.router != nil {
		if d := after.router[mRouteReqs] - before.router[mRouteReqs]; d != int64(len(outcomes)) {
			fail("router counted %d requests, the client sent %d", d, len(outcomes))
		}
		if d := after.router[mRouteCoal] - before.router[mRouteCoal]; d != coalesced {
			fail("router counted %d coalesced requests, the client saw %d %s headers", d, coalesced, serve.CoalescedHeader)
		}
	}

	joined := 0
	var pathCount = map[string]int64{}
	for i := range outcomes {
		o := &outcomes[i]
		if o.coalesced {
			continue
		}
		rec, ok := records[o.traceID]
		if !ok {
			if full {
				fail("request %d (trace %s) has no flight record", i, o.traceID)
			}
			continue
		}
		joined++
		pathCount[rec.CachePath]++
		recHit := rec.CachePath == "report-hit" || rec.CachePath == "store-hit"
		if recHit != o.hit() {
			fail("request %d: %s %q but flight cache_path %q", i, serve.CacheHeader, o.cache, rec.CachePath)
		}
		if rec.Status != o.status {
			fail("request %d: client status %d, flight status %d", i, o.status, rec.Status)
		}
		if rec.Endpoint != o.req.Endpoint {
			fail("request %d: sent to %s, flight endpoint %s", i, o.req.Endpoint, rec.Endpoint)
		}
	}
	if full {
		if pathCount["report-hit"] != reportHits {
			fail("%d flight records report-hit, %s grew by %d", pathCount["report-hit"], mReportHits, reportHits)
		}
		if pathCount["store-hit"] != storeHitCount {
			fail("%d flight records store-hit, %s grew by %d", pathCount["store-hit"], mStoreHits, storeHitCount)
		}
	}
	if len(errs) > 0 {
		if len(errs) > 5 {
			errs = append(errs[:5], fmt.Sprintf("… and %d more", len(errs)-5))
		}
		return joined, fmt.Errorf("counter agreement failed:\n  %s", strings.Join(errs, "\n  "))
	}
	return joined, nil
}
