package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"relive/internal/alphabet"
	"relive/internal/core"
	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/rex"
	"relive/internal/serve"
	"relive/internal/serve/cache"
	"relive/internal/ts"
	"relive/internal/word"
)

// library computes, with direct library calls and no HTTP, the body the
// service must answer for a request: the e2e suites' "pinned to the
// direct core marshal" pattern. It resolves systems the way the service
// documents (parse, canonicalize, re-parse the canonical text) and
// shares trimmed systems and pipeline cells between nearby requests, as
// the service's caches do. The caches keep only the most recent
// libraryCache entries: requests that share artifacts sit next to each
// other in every sequence, and an unbounded cache would hold every
// artifact of a run.
type library struct {
	systems *cache.LRU[*core.SystemCells]
	pipes   *cache.LRU[*core.PipelineCells]
}

const libraryCache = 256

func newLibrary() *library {
	return &library{
		systems: cache.New[*core.SystemCells](libraryCache),
		pipes:   cache.New[*core.PipelineCells](libraryCache),
	}
}

func (l *library) system(text string) (*core.SystemCells, string, error) {
	sys, err := ts.ParseString(text)
	if err != nil {
		return nil, "", err
	}
	canon := sys.FormatString()
	if sc, ok := l.systems.Get(canon); ok {
		return sc, canon, nil
	}
	csys, err := ts.ParseString(canon)
	if err != nil {
		return nil, "", err
	}
	sc, _ := l.systems.GetOrAdd(canon, func() *core.SystemCells { return core.NewSystemCells(csys) })
	return sc, canon, nil
}

func (l *library) pipeline(text, ltlText, omegaText string) (*core.SystemCells, *core.PipelineCells, error) {
	sc, canon, err := l.system(text)
	if err != nil {
		return nil, nil, err
	}
	key := canon + "\x00" + ltlText + "\x00" + omegaText
	if pc, ok := l.pipes.Get(key); ok {
		return sc, pc, nil
	}
	p, err := property(sc, ltlText, omegaText)
	if err != nil {
		return nil, nil, err
	}
	pc, _ := l.pipes.GetOrAdd(key, func() *core.PipelineCells { return core.NewPipelineCellsSharing(sc, p) })
	return sc, pc, nil
}

func property(sc *core.SystemCells, ltlText, omegaText string) (core.Property, error) {
	if ltlText != "" {
		f, err := ltl.Parse(ltlText)
		if err != nil {
			return core.Property{}, err
		}
		return core.FromFormula(f, nil), nil
	}
	o, err := rex.ParseOmega(sc.System().Alphabet(), omegaText)
	if err != nil {
		return core.Property{}, err
	}
	b, err := o.Buchi()
	if err != nil {
		return core.Property{}, err
	}
	return core.FromAutomaton(b), nil
}

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

// body returns the expected response body of r.
func (l *library) body(r *request) ([]byte, error) {
	v, err := l.value(r)
	if err != nil {
		return nil, err
	}
	out, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// value runs the check the request asks for, decoding the body with the
// service's own decoders so defaults are normalized the same way.
func (l *library) value(r *request) (any, error) {
	ctx := context.Background()
	switch r.Endpoint {
	case "all", "liveness", "safety", "satisfies":
		req, err := serve.DecodeCheckRequest(r.Body)
		if err != nil {
			return nil, err
		}
		sc, pc, err := l.pipeline(req.System, req.LTL, req.Omega)
		if err != nil {
			return nil, err
		}
		ab := sc.System().Alphabet()
		switch r.Endpoint {
		case "all":
			return core.CheckAllCellsCtx(ctx, nil, pc, 1)
		case "liveness":
			res, err := core.RelativeLivenessCellsCtx(ctx, nil, pc)
			if err != nil {
				return nil, err
			}
			return &serve.LivenessResponse{Holds: res.Holds, BadPrefix: names(ab, res.BadPrefix)}, nil
		case "safety":
			res, err := core.RelativeSafetyCellsCtx(ctx, nil, pc)
			if err != nil {
				return nil, err
			}
			return &serve.SafetyResponse{Holds: res.Holds, Violation: names(ab, res.Violation.Prefix), ViolationLoop: names(ab, res.Violation.Loop)}, nil
		default:
			res, err := core.SatisfiesCellsCtx(ctx, nil, pc)
			if err != nil {
				return nil, err
			}
			return &serve.SatisfiesResponse{Holds: res.Holds, Counterexample: names(ab, res.Counterexample.Prefix), CounterexampleLoop: names(ab, res.Counterexample.Loop)}, nil
		}
	case "portfolio":
		req, err := serve.DecodePortfolioRequest(r.Body)
		if err != nil {
			return nil, err
		}
		resp := &serve.PortfolioResponse{}
		add := func(ltlText, omegaText string) error {
			_, pc, err := l.pipeline(req.System, ltlText, omegaText)
			if err != nil {
				return err
			}
			rep, err := core.CheckAllCellsCtx(ctx, nil, pc, 1)
			if err != nil {
				return err
			}
			resp.Reports = append(resp.Reports, rep)
			return nil
		}
		for _, t := range req.LTLs {
			if err := add(t, ""); err != nil {
				return nil, err
			}
		}
		for _, t := range req.Omegas {
			if err := add("", t); err != nil {
				return nil, err
			}
		}
		return resp, nil
	case "abstraction":
		req, err := serve.DecodeAbstractionRequest(r.Body)
		if err != nil {
			return nil, err
		}
		sc, _, err := l.system(req.System)
		if err != nil {
			return nil, err
		}
		h, err := hom.Parse(sc.System().Alphabet(), req.Hom)
		if err != nil {
			return nil, err
		}
		eta, err := ltl.Parse(req.Eta)
		if err != nil {
			return nil, err
		}
		rep, err := core.VerifyViaAbstraction(sc.System(), h, eta)
		if err != nil {
			return nil, err
		}
		resp := &serve.AbstractionResponse{
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
	case "fair-abstract":
		req, err := serve.DecodeFairAbstractRequest(r.Body)
		if err != nil {
			return nil, err
		}
		sc, _, err := l.system(req.System)
		if err != nil {
			return nil, err
		}
		h, err := hom.Parse(sc.System().Alphabet(), req.Hom)
		if err != nil {
			return nil, err
		}
		kind, err := core.ParseFairnessKind(req.Fairness)
		if err != nil {
			return nil, err
		}
		eta, err := ltl.Parse(req.Eta)
		if err != nil {
			return nil, err
		}
		return core.CheckFairAbstractCells(ctx, nil, sc, h, kind, core.FromFormula(eta, ltl.Canonical(h.Dest())))
	case "statistical":
		req, err := serve.DecodeStatisticalRequest(r.Body)
		if err != nil {
			return nil, err
		}
		sc, _, err := l.system(req.System)
		if err != nil {
			return nil, err
		}
		p, err := property(sc, req.LTL, req.Omega)
		if err != nil {
			return nil, err
		}
		return core.CheckStatisticalCells(ctx, nil, sc, p, core.StatOptions{
			Seed: req.Seed, Samples: req.Samples, Steps: req.Steps, Confidence: req.Confidence, Workers: 1,
		})
	}
	return nil, fmt.Errorf("unknown endpoint %q", r.Endpoint)
}

// tally counts requests by outcome and failures by kind.
type tally struct {
	attempted, succeeded int
	failures             map[string]int
	firstFailure         string
}

func (t *tally) fail(kind, detail string) {
	if t.failures == nil {
		t.failures = map[string]int{}
	}
	t.failures[kind]++
	if t.firstFailure == "" {
		t.firstFailure = kind + ": " + detail
	}
}

func (t *tally) failed() int { return t.attempted - t.succeeded }

func (t *tally) String() string {
	kinds := make([]string, 0, len(t.failures))
	for k := range t.failures {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	s := fmt.Sprintf("sent %d, succeeded %d, failed %d", t.attempted, t.succeeded, t.failed())
	for _, k := range kinds {
		s += fmt.Sprintf(", %s %d", k, t.failures[k])
	}
	return s
}

// refKey identifies a request's inputs: requests with equal keys must
// get equal bodies.
func refKey(r *request) string { return r.Endpoint + "\x00" + string(r.Body) }

// check is the output check: every outcome must be a 200 whose body is
// byte-equal to its reference — the warm-up body for a working-set
// entry, compared as the body arrived, and the library's body for
// everything else, compared by SHA-256 digest. It marks each outcome ok
// or not and returns the tally and the library bodies by refKey. Two
// workers compute the library bodies after the timed window.
func check(outcomes []outcome, lib *library, ok []bool) (tally, map[string][]byte, error) {
	t := tally{attempted: len(outcomes)}
	type job struct {
		r    *request
		want []byte
		err  error
	}
	jobs := map[string]*job{}
	var order []*job
	for i := range outcomes {
		o := &outcomes[i]
		if o.err == nil && o.status == http.StatusOK && o.req.Entry < 0 {
			key := refKey(o.req)
			if jobs[key] == nil {
				jobs[key] = &job{r: o.req}
				order = append(order, jobs[key])
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(order); k += clients {
				order[k].want, order[k].err = lib.body(order[k].r)
			}
		}(w)
	}
	wg.Wait()
	refs := make(map[string][]byte, len(jobs))
	for key, j := range jobs {
		if j.err != nil {
			return t, nil, fmt.Errorf("library check for %s request: %w", j.r.Endpoint, j.err)
		}
		refs[key] = j.want
	}
	for i := range outcomes {
		o := &outcomes[i]
		switch {
		case o.err != nil:
			t.fail("transport", o.err.Error())
			continue
		case o.status != http.StatusOK:
			t.fail(fmt.Sprintf("status_%d", o.status), o.req.Endpoint+": "+o.excerpt)
			continue
		case o.req.Entry >= 0 && !o.warmMatch:
			t.fail("body_mismatch", fmt.Sprintf("%s request %d: body differs from the warm-up body of entry %d", o.req.Endpoint, i, o.req.Entry))
			continue
		case o.req.Entry < 0 && o.digest != sha256.Sum256(refs[refKey(o.req)]):
			t.fail("body_mismatch", fmt.Sprintf("%s request %d: served body with SHA-256 %x, want %q", o.req.Endpoint, i, o.digest, trim(refs[refKey(o.req)])))
			continue
		}
		ok[i] = true
		t.succeeded++
	}
	return t, refs, nil
}

func trim(b []byte) string {
	b = bytes.TrimSpace(b)
	if len(b) > 160 {
		return string(b[:160]) + "…"
	}
	return string(b)
}
