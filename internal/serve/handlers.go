package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"relive/internal/alphabet"
	"relive/internal/core"
	"relive/internal/obs"
	"relive/internal/store"
	"relive/internal/ts"
	"relive/internal/word"
)

// CacheHeader reports, on every check response, whether the body came
// from the report cache ("hit") or a fresh run ("miss"). It is a header
// rather than a body field so a cache hit is bit-identical to the cold
// response it replays.
const CacheHeader = "X-Relive-Cache"

// statusClientClosed is the (nginx-convention) status recorded when the
// client went away before the check finished; the connection is usually
// already dead when it is written.
const statusClientClosed = 499

// LivenessResponse is the body of /v1/check/liveness.
type LivenessResponse struct {
	Holds     bool     `json:"holds"`
	BadPrefix []string `json:"badPrefix,omitempty"`
}

// SafetyResponse is the body of /v1/check/safety.
type SafetyResponse struct {
	Holds         bool     `json:"holds"`
	Violation     []string `json:"violation,omitempty"`
	ViolationLoop []string `json:"violationLoop,omitempty"`
}

// SatisfiesResponse is the body of /v1/check/satisfies.
type SatisfiesResponse struct {
	Holds              bool     `json:"holds"`
	Counterexample     []string `json:"counterexample,omitempty"`
	CounterexampleLoop []string `json:"counterexampleLoop,omitempty"`
}

// PortfolioResponse is the body of /v1/check/portfolio; Reports follow
// the request's property order (LTLs first, then Omegas).
type PortfolioResponse struct {
	Reports []*core.Report `json:"reports"`
}

// AbstractionResponse is the body of /v1/check/abstraction.
type AbstractionResponse struct {
	Conclusion        string   `json:"conclusion"`
	AbstractHolds     bool     `json:"abstractHolds"`
	Simple            bool     `json:"simple"`
	ExtendedMaximal   bool     `json:"extendedMaximal"`
	AbstractStates    int      `json:"abstractStates"`
	AbstractBadPrefix []string `json:"abstractBadPrefix,omitempty"`
	SimplicityWitness []string `json:"simplicityWitness,omitempty"`
	Transformed       string   `json:"transformed,omitempty"`
}

// HealthResponse is the body of /healthz: serving state, worker-pool
// occupancy, the build identity (also printed by rlserve -version),
// and — when the persistent store is configured — its path, artifact
// count, and effectiveness counters, so an operator can see warm-cache
// state at a glance.
type HealthResponse struct {
	Status        string       `json:"status"` // "ok" or "draining"
	Inflight      int          `json:"inflight"`
	Admitted      int64        `json:"admitted"`
	Workers       int          `json:"workers"`
	QueueDepth    int          `json:"queue_depth"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Version       string       `json:"version"`
	GoVersion     string       `json:"go_version"`
	Store         *store.Stats `json:"store,omitempty"`
}

func (s *Server) routes() {
	for _, e := range endpoints {
		s.mux.HandleFunc("POST /v1/check/"+e.name, s.traced(e.name, true, s.handleCheck(e)))
	}
	s.mux.HandleFunc("GET /healthz", s.traced("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.traced("metrics", false, s.handleMetrics))
	s.mux.HandleFunc("GET /debug/checks", s.traced("debug", false, s.handleDebugChecks))
	s.mux.HandleFunc("GET /debug/checks/{trace}", s.traced("debug", false, s.handleDebugTrace))
}

// handleCheck is the one handler behind every endpoint of the table. It
// runs each request in one order: decode and key → report LRU →
// persistent store → resolve the inputs against the cached system cells
// (noting pipeline-hit or miss) → admission → the serve.<name> span
// around the check → marshal, cache fill, and write-through. Bad input
// is a 400 before admission, and report and store hits are served
// without consuming a worker slot. A cached report key implies its
// inputs were valid, so a hit returns before they are resolved.
func (s *Server) handleCheck(e *endpoint) http.HandlerFunc {
	spanName := "serve." + e.name
	return func(w http.ResponseWriter, r *http.Request) {
		obs.Count(s.tr, "serve.requests", 1)
		body, err := readBody(w, r)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad_request", err)
			return
		}
		req, err := e.decode(body)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad_request", err)
			return
		}
		ri := reqFrom(r.Context())
		if !req.noCache {
			if cached, ok := s.reports.Get(req.rkey); ok {
				obs.Count(s.tr, "serve.cache.report_hits", 1)
				noteCachePath(ri, req.rkey, cachePathReportHit)
				writeCached(w, cached, true)
				return
			}
			if cached, ok := s.storeGetReport(req.rkey); ok {
				noteCachePath(ri, req.rkey, cachePathStoreHit)
				writeCached(w, cached, true)
				return
			}
		}
		c, err := req.resolve(s, s.systemCells(req.system))
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad_request", err)
			return
		}
		if c.pipeHit {
			noteCachePath(ri, req.rkey, cachePathPipelineHit)
		} else {
			noteCachePath(ri, req.rkey, cachePathMiss)
		}
		release, status, aerr := s.admit(r.Context())
		if aerr != nil || status != 0 {
			s.writeAdmissionFailure(w, r, status, aerr)
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()
		defer release()

		ctx, cancel := s.checkContext(r, req.timeoutMS)
		defer cancel()
		rec := s.recorder(r.Context())
		sp := obs.StartSpan(rec, spanName)
		if c.properties > 0 {
			sp.Int("properties", int64(c.properties))
		}
		out, err := c.run(ctx, rec)
		if err != nil {
			sp.Tag("outcome", s.outcome(err))
			sp.End()
			s.writeCheckError(w, r, err)
			return
		}
		sp.Tag("outcome", "ok")
		sp.End()
		s.finish(w, r, req.rkey, out, req.noCache)
	}
}

// Cache-path labels: where a check's answer came from.
const (
	cachePathReportHit   = "report-hit"   // marshaled report replayed, no worker slot
	cachePathStoreHit    = "store-hit"    // report replayed from the persistent store
	cachePathPipelineHit = "pipeline-hit" // artifact cells reused, verdicts recomputed
	cachePathMiss        = "miss"         // full cold pipeline
)

// noteCachePath records the request's report key and where its response
// came from; a report or store hit is also a completed check ("ok")
// since it bypasses the run entirely.
func noteCachePath(ri *reqInfo, rkey, path string) {
	if ri == nil {
		return
	}
	ri.hash = rkey
	ri.cachePath = path
	if path == cachePathReportHit || path == cachePathStoreHit {
		ri.verdict = "ok"
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	build := Build()
	resp := HealthResponse{
		Status:        "ok",
		Inflight:      len(s.slots),
		Admitted:      s.admitted.Load(),
		Workers:       s.cfg.Workers,
		QueueDepth:    s.cfg.QueueDepth,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Version:       build.Version,
		GoVersion:     build.GoVersion,
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &st
	}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

// finish marshals the check result, fills the report cache, and writes
// the response as a cache miss.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, rkey string, out any, noCache bool) {
	body, err := json.Marshal(out)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", err)
		return
	}
	body = append(body, '\n')
	if !noCache {
		s.reports.Add(rkey, body)
	}
	obs.Count(s.tr, "serve.completed", 1)
	if ri := reqFrom(r.Context()); ri != nil {
		ri.verdict = "ok"
	}
	writeCached(w, body, false)
	// Write-through after the response: a store write never adds
	// latency to the check that produced the report. no_cache responses
	// are not persisted either — they exist to measure the cold path.
	if !noCache {
		s.storePut(storeKindReport, rkey, body)
	}
}

// outcome classifies an error for span tagging.
func (s *Server) outcome(err error) string {
	if isContextError(err) {
		return "cancelled"
	}
	return "error"
}

// writeCheckError maps a failed check to a response: a client that went
// away gets 499 (and likely never sees it), a server-side deadline gets
// 504, a system with no infinite behavior (which the abstraction method
// cannot abstract) is the client's 400, anything else is an internal
// error. Context errors are counted separately from check failures —
// the load tests and the obs span "outcome" tags rely on the
// distinction.
func (s *Server) writeCheckError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ts.ErrNoInfiniteBehavior):
		s.writeError(w, r, http.StatusBadRequest, "bad_request", err)
	case isContextError(err) && r.Context().Err() != nil:
		obs.Count(s.tr, "serve.cancelled", 1)
		s.writeError(w, r, statusClientClosed, "cancelled", err)
	case isContextError(err):
		obs.Count(s.tr, "serve.timeout", 1)
		s.writeError(w, r, http.StatusGatewayTimeout, "timeout", err)
	default:
		obs.Count(s.tr, "serve.errors", 1)
		s.writeError(w, r, http.StatusInternalServerError, "internal", err)
	}
}

// writeAdmissionFailure responds to a request that never got a worker
// slot: queue overflow (429 + Retry-After), draining (503), or the
// caller abandoning the queue (499).
func (s *Server) writeAdmissionFailure(w http.ResponseWriter, r *http.Request, status int, err error) {
	switch {
	case err != nil:
		obs.Count(s.tr, "serve.cancelled", 1)
		s.writeError(w, r, statusClientClosed, "cancelled", err)
	case status == http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "1")
		s.writeError(w, r, status, "overloaded", fmt.Errorf("queue full: %d checks admitted", s.capacity))
	default:
		s.writeError(w, r, status, "draining", fmt.Errorf("server is draining"))
	}
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, kind string, err error) {
	if ri := reqFrom(r.Context()); ri != nil && ri.verdict == "" {
		ri.verdict = verdictOfKind(kind)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error(), Kind: kind})
}

// verdictOfKind maps a wire error kind to the flight recorder's verdict
// vocabulary (ok | cancelled | timeout | error | shed | draining |
// bad_request).
func verdictOfKind(kind string) string {
	switch kind {
	case "internal":
		return "error"
	case "overloaded":
		return "shed"
	}
	return kind
}

func writeCached(w http.ResponseWriter, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set(CacheHeader, "hit")
	} else {
		w.Header().Set(CacheHeader, "miss")
	}
	w.Write(body)
}

// readBody reads a request body under the MaxBodyBytes cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return body, nil
}

// names renders a word's symbols as action names.
func names(ab *alphabet.Alphabet, w word.Word) []string {
	if len(w) == 0 {
		return nil
	}
	out := make([]string, len(w))
	for i, sym := range w {
		out[i] = ab.Name(sym)
	}
	return out
}
