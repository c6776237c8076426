package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"relive/internal/mc"
)

// Wire format of the checking service. Every check endpoint accepts a
// JSON body; decoding is strict (unknown fields are errors) and
// validated before any automaton work starts, so the service can reject
// malformed requests without spending a worker slot. DecodeCheckRequest
// and DecodePortfolioRequest are the exact functions the fuzz target
// FuzzServeRequest drives.

// Wire-level limits. Requests beyond these are rejected with 400 before
// parsing; they bound the parser work a single malformed or hostile
// request can cause, independently of the worker-pool admission control.
const (
	// MaxBodyBytes bounds a request body (enforced via MaxBytesReader).
	MaxBodyBytes = 1 << 20
	// maxSystemBytes bounds the transition-system text inside a body.
	maxSystemBytes = 1 << 19
	// maxPropertyBytes bounds one property (LTL or ω-regex) text.
	maxPropertyBytes = 1 << 12
	// maxPortfolioProps bounds the number of properties per portfolio
	// request.
	maxPortfolioProps = 64
	// maxTimeoutMS bounds the per-request timeout a client may ask for.
	maxTimeoutMS = 10 * 60 * 1000
)

// CheckRequest is the body of the single-property check endpoints
// (/v1/check/all, /v1/check/liveness, /v1/check/safety,
// /v1/check/satisfies). Exactly one of LTL and Omega must be set.
type CheckRequest struct {
	// System is the transition system in the text format of
	// ts.Parse: "init <state>" plus "<from> <action> <to>" lines.
	System string `json:"system"`
	// LTL is a PLTL property ("G F result" or the paper's "□◇result").
	LTL string `json:"ltl,omitempty"`
	// Omega is an ω-regular property "U ( V ) ^w" over the system's
	// action names, instead of LTL.
	Omega string `json:"omega,omitempty"`
	// TimeoutMS optionally caps this request's wall time; the check is
	// cancelled cooperatively when it expires. 0 means the server
	// default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache skips the report cache (artifact cells are still shared);
	// load tests use it to measure cold-path latency.
	NoCache bool `json:"no_cache,omitempty"`
}

// PortfolioRequest is the body of /v1/check/portfolio: CheckAll for
// every listed property against one system, sharing the trimmed system
// and behavior automaton across properties.
type PortfolioRequest struct {
	System string `json:"system"`
	// LTLs are PLTL property texts; verdicts come back in this order,
	// after any Omegas.
	LTLs []string `json:"ltls,omitempty"`
	// Omegas are ω-regex property texts, appended after LTLs.
	Omegas    []string `json:"omegas,omitempty"`
	TimeoutMS int      `json:"timeout_ms,omitempty"`
	NoCache   bool     `json:"no_cache,omitempty"`
}

// AbstractionRequest is the body of /v1/check/abstraction: the paper's
// abstraction method end to end (abstract under Hom, check Eta there,
// conclude per Corollary 8.4).
type AbstractionRequest struct {
	System string `json:"system"`
	// Hom is an abstracting homomorphism as "a=>x, b=>" mapping lines;
	// empty targets hide letters.
	Hom string `json:"hom"`
	// Eta is the abstract PLTL property in Σ'-normal form.
	Eta       string `json:"eta"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	NoCache   bool   `json:"no_cache,omitempty"`
}

// FairAbstractRequest is the body of /v1/check/fair-abstract: decide
// whether every fair run of the system satisfies Eta through Hom
// (fairness within behavior abstraction).
type FairAbstractRequest struct {
	System string `json:"system"`
	// Hom is an abstracting homomorphism as "a=>x, b=>" mapping lines;
	// empty targets hide letters.
	Hom string `json:"hom"`
	// Fairness selects the notion: "strong" or "weak".
	Fairness string `json:"fairness"`
	// Eta is the abstract PLTL property in Σ'-normal form.
	Eta       string `json:"eta"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	NoCache   bool   `json:"no_cache,omitempty"`
}

// Statistical sampling limits: caps on the per-request budget so one
// request cannot buy unbounded CPU, and a cap on the walk product
// (samples × steps) analogous to the body-size caps.
const (
	maxStatSamples = 100_000
	maxStatSteps   = 65_536
	maxStatWork    = 10_000_000 // samples × steps
)

// StatisticalRequest is the body of /v1/check/statistical: a
// sampling-based relative-liveness verdict with confidence-interval
// bounds ("statistical": true in the report, never claimed exact).
// Exactly one of LTL and Omega must be set. Zero Seed/Samples/Steps/
// Confidence take the engine defaults; the decoder normalizes them
// before the request is keyed, so a body spelling the defaults
// explicitly shares its cache entry with one omitting them.
type StatisticalRequest struct {
	System string `json:"system"`
	LTL    string `json:"ltl,omitempty"`
	Omega  string `json:"omega,omitempty"`
	// Seed fixes the sampling RNG; same seed + budget + confidence ⇒
	// byte-identical report. Defaults to 0.
	Seed int64 `json:"seed,omitempty"`
	// Samples and Steps set the budget: Samples random walks of Steps
	// steps each (defaults 400 × 256).
	Samples int `json:"samples,omitempty"`
	Steps   int `json:"steps,omitempty"`
	// Confidence is the two-sided CI level (default 0.99).
	Confidence float64 `json:"confidence,omitempty"`
	TimeoutMS  int     `json:"timeout_ms,omitempty"`
	NoCache    bool    `json:"no_cache,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind classifies the failure: "bad_request", "overloaded",
	// "timeout", "cancelled", "draining", or "internal".
	Kind string `json:"kind"`
}

// decodeBody enforces the body cap, then unmarshals strictly: unknown
// fields and trailing data are errors. Every Decode*Request starts here.
func decodeBody(data []byte, v any) error {
	if len(data) > MaxBodyBytes {
		return fmt.Errorf("body exceeds %d bytes", MaxBodyBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// DecodeCheckRequest parses and validates a single-check request body.
func DecodeCheckRequest(data []byte) (*CheckRequest, error) {
	var req CheckRequest
	if err := decodeBody(data, &req); err != nil {
		return nil, err
	}
	if err := validateSystemText(req.System); err != nil {
		return nil, err
	}
	if err := validateOneProperty(req.LTL, req.Omega); err != nil {
		return nil, err
	}
	if err := validateTimeout(req.TimeoutMS); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodePortfolioRequest parses and validates a portfolio request body.
func DecodePortfolioRequest(data []byte) (*PortfolioRequest, error) {
	var req PortfolioRequest
	if err := decodeBody(data, &req); err != nil {
		return nil, err
	}
	if err := validateSystemText(req.System); err != nil {
		return nil, err
	}
	n := len(req.LTLs) + len(req.Omegas)
	if n == 0 {
		return nil, fmt.Errorf("at least one property (\"ltls\" or \"omegas\") is required")
	}
	if n > maxPortfolioProps {
		return nil, fmt.Errorf("portfolio exceeds %d properties", maxPortfolioProps)
	}
	for _, t := range req.LTLs {
		if t == "" {
			return nil, fmt.Errorf("empty property in \"ltls\"")
		}
		if err := validatePropertyText(t); err != nil {
			return nil, err
		}
	}
	for _, t := range req.Omegas {
		if t == "" {
			return nil, fmt.Errorf("empty property in \"omegas\"")
		}
		if err := validatePropertyText(t); err != nil {
			return nil, err
		}
	}
	if err := validateTimeout(req.TimeoutMS); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeAbstractionRequest parses and validates an abstraction request
// body.
func DecodeAbstractionRequest(data []byte) (*AbstractionRequest, error) {
	var req AbstractionRequest
	if err := decodeBody(data, &req); err != nil {
		return nil, err
	}
	if err := validateSystemText(req.System); err != nil {
		return nil, err
	}
	if req.Hom == "" {
		return nil, fmt.Errorf("\"hom\" is required")
	}
	if len(req.Hom) > maxPropertyBytes {
		return nil, fmt.Errorf("hom text exceeds %d bytes", maxPropertyBytes)
	}
	if req.Eta == "" {
		return nil, fmt.Errorf("\"eta\" is required")
	}
	if err := validatePropertyText(req.Eta); err != nil {
		return nil, err
	}
	if err := validateTimeout(req.TimeoutMS); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeFairAbstractRequest parses and validates a fair-abstract
// request body.
func DecodeFairAbstractRequest(data []byte) (*FairAbstractRequest, error) {
	var req FairAbstractRequest
	if err := decodeBody(data, &req); err != nil {
		return nil, err
	}
	if err := validateSystemText(req.System); err != nil {
		return nil, err
	}
	if req.Hom == "" {
		return nil, fmt.Errorf("\"hom\" is required")
	}
	if len(req.Hom) > maxPropertyBytes {
		return nil, fmt.Errorf("hom text exceeds %d bytes", maxPropertyBytes)
	}
	if req.Fairness != "strong" && req.Fairness != "weak" {
		return nil, fmt.Errorf("\"fairness\" must be \"strong\" or \"weak\"")
	}
	if req.Eta == "" {
		return nil, fmt.Errorf("\"eta\" is required")
	}
	if err := validatePropertyText(req.Eta); err != nil {
		return nil, err
	}
	if err := validateTimeout(req.TimeoutMS); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeStatisticalRequest parses, validates, and *normalizes* a
// statistical request body: engine defaults are filled in here, before
// any keying, so explicit-default and omitted-default bodies coalesce
// in every cache and in the router.
func DecodeStatisticalRequest(data []byte) (*StatisticalRequest, error) {
	var req StatisticalRequest
	if err := decodeBody(data, &req); err != nil {
		return nil, err
	}
	if err := validateSystemText(req.System); err != nil {
		return nil, err
	}
	if err := validateOneProperty(req.LTL, req.Omega); err != nil {
		return nil, err
	}
	if req.Samples < 0 || req.Samples > maxStatSamples {
		return nil, fmt.Errorf("\"samples\" must be in [0, %d]", maxStatSamples)
	}
	if req.Steps < 0 || req.Steps > maxStatSteps {
		return nil, fmt.Errorf("\"steps\" must be in [0, %d]", maxStatSteps)
	}
	if req.Confidence < 0 || req.Confidence >= 1 {
		return nil, fmt.Errorf("\"confidence\" must be in [0, 1)")
	}
	if req.Samples == 0 {
		req.Samples = mc.DefaultSamples
	}
	if req.Steps == 0 {
		req.Steps = mc.DefaultSteps
	}
	if req.Confidence == 0 {
		req.Confidence = mc.DefaultConfidence
	}
	if work := int64(req.Samples) * int64(req.Steps); work > maxStatWork {
		return nil, fmt.Errorf("sampling budget samples*steps = %d exceeds %d", work, maxStatWork)
	}
	if err := validateTimeout(req.TimeoutMS); err != nil {
		return nil, err
	}
	return &req, nil
}

func validateSystemText(text string) error {
	if text == "" {
		return fmt.Errorf("\"system\" is required")
	}
	if len(text) > maxSystemBytes {
		return fmt.Errorf("system text exceeds %d bytes", maxSystemBytes)
	}
	return nil
}

// validateOneProperty checks that exactly one of an LTL and an ω-regex
// property is set, within the property size cap.
func validateOneProperty(ltlText, omegaText string) error {
	if (ltlText == "") == (omegaText == "") {
		return fmt.Errorf("exactly one of \"ltl\" and \"omega\" is required")
	}
	return validatePropertyText(ltlText + omegaText)
}

func validatePropertyText(text string) error {
	if len(text) > maxPropertyBytes {
		return fmt.Errorf("property text exceeds %d bytes", maxPropertyBytes)
	}
	return nil
}

func validateTimeout(ms int) error {
	if ms < 0 {
		return fmt.Errorf("\"timeout_ms\" must be non-negative")
	}
	if ms > maxTimeoutMS {
		return fmt.Errorf("\"timeout_ms\" exceeds %d", maxTimeoutMS)
	}
	return nil
}
