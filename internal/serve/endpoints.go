package serve

import (
	"context"
	"strconv"

	"relive/internal/core"
	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/obs"
	"relive/internal/rex"
	"relive/internal/ts"
)

// endpoint is one row of the endpoint table. The server mounts every
// row at POST /v1/check/{name} behind handleCheck, the router places and
// coalesces its requests with the same decode, and the per-endpoint
// /metrics series come from the same table, so adding an endpoint is
// adding one row.
type endpoint struct {
	name string
	// decode strictly decodes and validates a body, parses its
	// alphabet-free inputs (the system, then any LTL text), and keys it:
	// the one derivation the server and the router share, so router
	// coalescing merges exactly the requests a backend's report cache
	// would.
	decode func(body []byte) (*checkRequest, error)
}

// checkRequest is one decoded and keyed check body.
type checkRequest struct {
	system    *keyedSystem
	rkey      string // report key
	timeoutMS int
	noCache   bool
	// resolve runs only past the report cache: given the cached system
	// cells, it parses the inputs that need the system's alphabet
	// (ω-regexes, homomorphisms), looks up pipeline cells, and returns
	// the check to run. Its errors are client errors.
	resolve func(s *Server, sc *core.SystemCells) (*check, error)
}

// check is a resolved check, ready to run once admitted.
type check struct {
	run func(ctx context.Context, rec obs.Recorder) (any, error)
	// pipeHit reports that every pipeline cell the check runs over was
	// already cached (the pipeline-hit cache path).
	pipeHit bool
	// properties, when non-zero, is tagged on the check's span.
	properties int
}

var endpoints = []*endpoint{
	propertyEndpoint("all", func(ctx context.Context, s *Server, rec obs.Recorder, sc *core.SystemCells, pc *core.PipelineCells) (any, error) {
		return core.CheckAllCellsCtx(ctx, rec, pc, s.cfg.Parallelism)
	}),
	propertyEndpoint("liveness", func(ctx context.Context, s *Server, rec obs.Recorder, sc *core.SystemCells, pc *core.PipelineCells) (any, error) {
		res, err := core.RelativeLivenessCellsCtx(ctx, rec, pc)
		if err != nil {
			return nil, err
		}
		return &LivenessResponse{Holds: res.Holds, BadPrefix: names(sc.System().Alphabet(), res.BadPrefix)}, nil
	}),
	propertyEndpoint("safety", func(ctx context.Context, s *Server, rec obs.Recorder, sc *core.SystemCells, pc *core.PipelineCells) (any, error) {
		res, err := core.RelativeSafetyCellsCtx(ctx, rec, pc)
		if err != nil {
			return nil, err
		}
		ab := sc.System().Alphabet()
		return &SafetyResponse{
			Holds:         res.Holds,
			Violation:     names(ab, res.Violation.Prefix),
			ViolationLoop: names(ab, res.Violation.Loop),
		}, nil
	}),
	propertyEndpoint("satisfies", func(ctx context.Context, s *Server, rec obs.Recorder, sc *core.SystemCells, pc *core.PipelineCells) (any, error) {
		res, err := core.SatisfiesCellsCtx(ctx, rec, pc)
		if err != nil {
			return nil, err
		}
		ab := sc.System().Alphabet()
		return &SatisfiesResponse{
			Holds:              res.Holds,
			Counterexample:     names(ab, res.Counterexample.Prefix),
			CounterexampleLoop: names(ab, res.Counterexample.Loop),
		}, nil
	}),
	{name: "portfolio", decode: decodePortfolio},
	{name: "abstraction", decode: decodeAbstraction},
	{name: "fair-abstract", decode: decodeFairAbstract},
	{name: "statistical", decode: decodeStatistical},
}

// endpointNamed returns the table row for name, or nil.
func endpointNamed(name string) *endpoint {
	for _, e := range endpoints {
		if e.name == name {
			return e
		}
	}
	return nil
}

// keyedSystem is a request's system parsed and keyed by the structural
// hash of its canonical rendering (see hash.go); the key also places the
// request on the router's ring.
type keyedSystem struct {
	parsed *ts.System
	canon  string
	key    string
}

func keySystem(text string) (*keyedSystem, error) {
	sys, err := ts.ParseString(text)
	if err != nil {
		return nil, err
	}
	canon := sys.FormatString()
	return &keyedSystem{parsed: sys, canon: canon, key: hashKey("sys", canon)}, nil
}

// property is a request's property as keyed before the system's
// alphabet is known. LTL is parsed at decode time and keyed by its
// canonical rendering ("GF result" and "G F result" share a key). An
// ω-regex automaton is alphabet-bound, so it is keyed by its raw text
// (the key pairs with the system key anyway) and parsed by resolve.
type property struct {
	key     string
	formula *ltl.Formula // nil for an ω-regex
	omega   string
}

// keyProperty keys a property; exactly one of ltlText and omegaText is
// non-empty (validated at decode time).
func keyProperty(ltlText, omegaText string) (property, error) {
	if ltlText != "" {
		f, err := ltl.Parse(ltlText)
		if err != nil {
			return property{}, err
		}
		return property{key: "ltl\x00" + f.String(), formula: f}, nil
	}
	return property{key: "omega\x00" + omegaText, omega: omegaText}, nil
}

// resolve builds the property against the cached system's alphabet.
func (p property) resolve(sc *core.SystemCells) (core.Property, error) {
	if p.formula != nil {
		return core.FromFormula(p.formula, nil), nil
	}
	o, err := rex.ParseOmega(sc.System().Alphabet(), p.omega)
	if err != nil {
		return core.Property{}, err
	}
	b, err := o.Buchi()
	if err != nil {
		return core.Property{}, err
	}
	return core.FromAutomaton(b), nil
}

// propertyEndpoint is a single-property endpoint: one verdict over the
// (system, property) pipeline cells.
func propertyEndpoint(name string, verdict func(context.Context, *Server, obs.Recorder, *core.SystemCells, *core.PipelineCells) (any, error)) *endpoint {
	decode := func(body []byte) (*checkRequest, error) {
		req, err := DecodeCheckRequest(body)
		if err != nil {
			return nil, err
		}
		ks, err := keySystem(req.System)
		if err != nil {
			return nil, err
		}
		p, err := keyProperty(req.LTL, req.Omega)
		if err != nil {
			return nil, err
		}
		rkey := hashKey("report", name, ks.key, p.key)
		return &checkRequest{system: ks, rkey: rkey, timeoutMS: req.TimeoutMS, noCache: req.NoCache,
			resolve: func(s *Server, sc *core.SystemCells) (*check, error) {
				cells, hit, err := s.pipelineCells(ks.key, sc, p)
				if err != nil {
					return nil, err
				}
				return &check{pipeHit: hit, run: func(ctx context.Context, rec obs.Recorder) (any, error) {
					return verdict(ctx, s, rec, sc, cells[0])
				}}, nil
			}}, nil
	}
	return &endpoint{name: name, decode: decode}
}

// decodePortfolio: CheckAll for every property against one system. All
// properties share the system's trimmed-behavior cells, so the system is
// trimmed once no matter how many properties ride along.
func decodePortfolio(body []byte) (*checkRequest, error) {
	req, err := DecodePortfolioRequest(body)
	if err != nil {
		return nil, err
	}
	ks, err := keySystem(req.System)
	if err != nil {
		return nil, err
	}
	props := make([]property, 0, len(req.LTLs)+len(req.Omegas))
	parts := []string{"portfolio", ks.key}
	for _, t := range req.LTLs {
		p, err := keyProperty(t, "")
		if err != nil {
			return nil, err
		}
		props, parts = append(props, p), append(parts, p.key)
	}
	for _, t := range req.Omegas {
		p, _ := keyProperty("", t) // keying an ω-regex parses nothing, so cannot fail
		props, parts = append(props, p), append(parts, p.key)
	}
	return &checkRequest{system: ks, rkey: hashKey(parts...), timeoutMS: req.TimeoutMS, noCache: req.NoCache,
		resolve: func(s *Server, sc *core.SystemCells) (*check, error) {
			cells, hit, err := s.pipelineCells(ks.key, sc, props...)
			if err != nil {
				return nil, err
			}
			return &check{pipeHit: hit, properties: len(cells), run: func(ctx context.Context, rec obs.Recorder) (any, error) {
				resp := &PortfolioResponse{Reports: make([]*core.Report, len(cells))}
				for i, pc := range cells {
					rep, err := core.CheckAllCellsCtx(ctx, rec, pc, s.cfg.Parallelism)
					if err != nil {
						return nil, err
					}
					resp.Reports[i] = rep
				}
				return resp, nil
			}}, nil
		}}, nil
}

// decodeAbstraction: the paper's abstraction method (Sections 6–8),
// keyed by the raw hom text and the canonical η. It has no pipeline
// cells, so anything past the report cache is a miss.
func decodeAbstraction(body []byte) (*checkRequest, error) {
	req, err := DecodeAbstractionRequest(body)
	if err != nil {
		return nil, err
	}
	ks, err := keySystem(req.System)
	if err != nil {
		return nil, err
	}
	eta, err := ltl.Parse(req.Eta)
	if err != nil {
		return nil, err
	}
	rkey := hashKey("abstraction", ks.key, req.Hom, eta.String())
	return &checkRequest{system: ks, rkey: rkey, timeoutMS: req.TimeoutMS, noCache: req.NoCache,
		resolve: func(s *Server, sc *core.SystemCells) (*check, error) {
			h, err := hom.Parse(sc.System().Alphabet(), req.Hom)
			if err != nil {
				return nil, err
			}
			return &check{run: func(ctx context.Context, rec obs.Recorder) (any, error) {
				rep, err := core.VerifyViaAbstractionCtx(ctx, rec, sc.System(), h, eta)
				if err != nil {
					return nil, err
				}
				resp := &AbstractionResponse{
					Conclusion:        rep.Conclusion.String(),
					AbstractHolds:     rep.AbstractHolds,
					Simple:            rep.Simple,
					ExtendedMaximal:   rep.ExtendedMaximal,
					AbstractStates:    rep.Abstract.NumStates(),
					AbstractBadPrefix: names(rep.Abstract.Alphabet(), rep.AbstractBadPrefix),
					SimplicityWitness: names(sc.System().Alphabet(), rep.SimplicityWitness),
				}
				if rep.Transformed != nil {
					resp.Transformed = rep.Transformed.String()
				}
				return resp, nil
			}}, nil
		}}, nil
}

// decodeFairAbstract: every fair run of the system (strong or weak
// transition fairness, on the trimmed system) satisfies η through the
// hom. The response is the core.FairAbstractReport itself. Past the
// report cache only the system cells are reused.
func decodeFairAbstract(body []byte) (*checkRequest, error) {
	req, err := DecodeFairAbstractRequest(body)
	if err != nil {
		return nil, err
	}
	ks, err := keySystem(req.System)
	if err != nil {
		return nil, err
	}
	eta, err := ltl.Parse(req.Eta)
	if err != nil {
		return nil, err
	}
	rkey := hashKey("fair-abstract", ks.key, req.Hom, req.Fairness, eta.String())
	return &checkRequest{system: ks, rkey: rkey, timeoutMS: req.TimeoutMS, noCache: req.NoCache,
		resolve: func(s *Server, sc *core.SystemCells) (*check, error) {
			h, err := hom.Parse(sc.System().Alphabet(), req.Hom)
			if err != nil {
				return nil, err
			}
			kind, err := core.ParseFairnessKind(req.Fairness)
			if err != nil {
				return nil, err
			}
			return &check{run: func(ctx context.Context, rec obs.Recorder) (any, error) {
				return core.CheckFairAbstractCells(ctx, rec, sc, h, kind,
					core.FromFormula(eta, ltl.Canonical(h.Dest())))
			}}, nil
		}}, nil
}

// decodeStatistical: the sampling engine's confidence-interval verdict.
// The decoder normalizes the budget defaults before keying, so the
// report — a deterministic function of (system, property, seed,
// samples, steps, confidence) — replays byte-identically under a fixed
// seed. Past the report cache only the system cells are reused.
func decodeStatistical(body []byte) (*checkRequest, error) {
	req, err := DecodeStatisticalRequest(body)
	if err != nil {
		return nil, err
	}
	ks, err := keySystem(req.System)
	if err != nil {
		return nil, err
	}
	p, err := keyProperty(req.LTL, req.Omega)
	if err != nil {
		return nil, err
	}
	rkey := hashKey("statistical", ks.key, p.key,
		strconv.FormatInt(req.Seed, 10),
		strconv.Itoa(req.Samples),
		strconv.Itoa(req.Steps),
		strconv.FormatFloat(req.Confidence, 'g', -1, 64))
	return &checkRequest{system: ks, rkey: rkey, timeoutMS: req.TimeoutMS, noCache: req.NoCache,
		resolve: func(s *Server, sc *core.SystemCells) (*check, error) {
			prop, err := p.resolve(sc)
			if err != nil {
				return nil, err
			}
			return &check{run: func(ctx context.Context, rec obs.Recorder) (any, error) {
				return core.CheckStatisticalCells(ctx, rec, sc, prop, core.StatOptions{
					Seed:       req.Seed,
					Samples:    req.Samples,
					Steps:      req.Steps,
					Confidence: req.Confidence,
					Workers:    s.cfg.Parallelism,
				})
			}}, nil
		}}, nil
}
