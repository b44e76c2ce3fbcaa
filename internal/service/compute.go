package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cachesim"
	"repro/internal/cachesim/analytic"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/loopir"
	"repro/internal/obs"
	"repro/internal/tilesearch"
	"repro/internal/trace"
)

// Sentinel errors the HTTP layer maps to status codes. Everything else a
// compute function returns is a client problem (400).
var (
	// ErrOverload is returned when the admission queue is full (429).
	ErrOverload = errors.New("service: overloaded, queue full")
	// errBadRequest wraps malformed-request errors explicitly; bare
	// compute errors are treated the same way.
	errBadRequest = errors.New("bad request")
)

// NestRequest is the problem-selection half of every request body: either
// a named kernel from the experiment suite (kernel/n/tiles, with env
// overlaying the generated bindings) or an inline nest in the textual
// format of loopir.Parse (nest/env). Exactly one of the two forms must be
// used.
type NestRequest struct {
	Kernel string           `json:"kernel,omitempty"`
	N      int64            `json:"n,omitempty"`
	Tiles  []int64          `json:"tiles,omitempty"`
	Nest   string           `json:"nest,omitempty"`
	Env    map[string]int64 `json:"env,omitempty"`
}

// resolve turns a NestRequest into a canonical spec plus the parsed nest.
// Canonicalization is what makes request keys insensitive to array order,
// env order, whitespace, comments and irrelevant bindings. The returned
// nest is what the batch candidates form validates its tile symbols
// against; single-request planning ignores it.
func (nr *NestRequest) resolve() (*loopir.Spec, *loopir.Nest, error) {
	switch {
	case nr.Nest != "" && nr.Kernel != "":
		return nil, nil, fmt.Errorf("%w: request has both nest and kernel; use one", errBadRequest)
	case nr.Nest != "":
		spec := &loopir.Spec{Nest: nr.Nest, Env: nr.Env}
		c, nest, err := spec.Canonicalize()
		if err != nil {
			return nil, nil, err
		}
		return c, nest, nil
	case nr.Kernel != "":
		if nr.N <= 0 {
			return nil, nil, fmt.Errorf("%w: kernel request needs n >= 1", errBadRequest)
		}
		nest, env, err := experiments.BuildKernel(nr.Kernel, nr.N, nr.Tiles)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range nr.Env {
			env[k] = v
		}
		return loopir.SpecOf(nest, env), nest, nil
	}
	return nil, nil, fmt.Errorf("%w: request needs a nest or a kernel", errBadRequest)
}

// decodeInto strictly decodes a request body.
func decodeInto(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return nil
}

// cacheElemsOf resolves the capacity pair every model endpoint carries.
func cacheElemsOf(elems, kb int64) (int64, error) {
	switch {
	case elems > 0:
		return elems, nil
	case kb > 0:
		return experiments.KB(kb), nil
	}
	return 0, fmt.Errorf("%w: request needs cacheElems or cacheKB", errBadRequest)
}

// assocConfigOf resolves the optional ways/line pair into a cache config.
// Omitted ways yields the fully-associative config (Ways zero) so the
// prediction paths, cache keys and response bytes stay exactly what they
// were before the fields existed. Present ways must name a geometry the
// set-associative simulator itself would accept.
func assocConfigOf(ways, line *int64, cacheElems int64) (core.CacheConfig, error) {
	cfg := core.CacheConfig{CapacityElems: cacheElems}
	if ways == nil {
		if line != nil {
			return cfg, fmt.Errorf("%w: line requires ways", errBadRequest)
		}
		return cfg, nil
	}
	if *ways <= 0 {
		return cfg, fmt.Errorf("%w: ways must be >= 1, got %d", errBadRequest, *ways)
	}
	cfg.Ways = *ways
	if line != nil {
		if *line <= 0 {
			return cfg, fmt.Errorf("%w: line must be >= 1, got %d", errBadRequest, *line)
		}
		cfg.LineElems = *line
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return cfg, nil
}

// effectiveLine is the line size a config actually models (LineElems zero
// means one-element lines): what keys and responses report.
func effectiveLine(cfg core.CacheConfig) int64 {
	if cfg.LineElems <= 0 {
		return 1
	}
	return cfg.LineElems
}

// encBufPool recycles the buffer+encoder pairs marshal renders responses
// through, so the warm path reuses its encoding machinery instead of
// rebuilding it per response.
var encBufPool = sync.Pool{New: func() any {
	buf := new(bytes.Buffer)
	return &encBuf{buf: buf, enc: json.NewEncoder(buf)}
}}

type encBuf struct {
	buf *bytes.Buffer
	enc *json.Encoder
}

// marshal renders every response: compact deterministic JSON with a
// trailing newline, so cached bytes, direct Compute calls, batch item
// records and golden files compare byte-for-byte. Compact is the stored
// and served form (it is also what NDJSON framing requires of embedded
// records); human-readable output is an HTTP-layer presentation behind
// ?pretty=1. The returned slice is freshly owned — the cache retains it —
// while the encoding scratch is pooled.
func marshal(v any) ([]byte, error) {
	eb := encBufPool.Get().(*encBuf)
	eb.buf.Reset()
	if err := eb.enc.Encode(v); err != nil {
		encBufPool.Put(eb)
		return nil, err
	}
	data := append([]byte(nil), eb.buf.Bytes()...)
	encBufPool.Put(eb)
	return data, nil
}

// AnalyzeRequest selects a nest; bindings are accepted but irrelevant (the
// component inventory is symbolic), so they do not enter the cache key.
type AnalyzeRequest struct {
	NestRequest
}

// AnalyzeResponse is the symbolic component inventory of a nest.
type AnalyzeResponse struct {
	Nest       string               `json:"nest"`    // nest name
	Source     string               `json:"source"`  // canonical nest text
	Symbols    []string             `json:"symbols"` // sorted symbol names
	Components []core.ComponentJSON `json:"components"`
}

// PredictRequest evaluates the model at concrete bindings. Capacity is
// given as elements or kilobytes (8-byte elements); detail adds the
// per-site miss breakdown. Ways, when present, switches to the
// conflict-aware set-associative model (line is the line size in elements,
// defaulting to one); omitted ways keeps the fully-associative model and
// its exact response bytes.
type PredictRequest struct {
	NestRequest
	CacheElems int64  `json:"cacheElems,omitempty"`
	CacheKB    int64  `json:"cacheKB,omitempty"`
	Ways       *int64 `json:"ways,omitempty"`
	Line       *int64 `json:"line,omitempty"`
	Detail     bool   `json:"detail,omitempty"`
}

// PredictResponse is a concrete miss prediction. Ways/Line echo the
// effective set-associative geometry and are omitted on the
// fully-associative model.
type PredictResponse struct {
	Nest       string           `json:"nest"`
	Env        map[string]int64 `json:"env"`
	CacheElems int64            `json:"cacheElems"`
	Ways       int64            `json:"ways,omitempty"`
	Line       int64            `json:"line,omitempty"`
	Accesses   int64            `json:"accesses"`
	Misses     int64            `json:"misses"`
	BySite     map[string]int64 `json:"bySite,omitempty"`
}

// TileSearchRequest runs the §6 search. Dims maps each tile symbol to its
// largest candidate size; the base environment must bind the loop bounds.
type TileSearchRequest struct {
	NestRequest
	CacheElems int64            `json:"cacheElems,omitempty"`
	CacheKB    int64            `json:"cacheKB,omitempty"`
	Ways       *int64           `json:"ways,omitempty"`
	Line       *int64           `json:"line,omitempty"`
	Dims       map[string]int64 `json:"dims"`
	MinTile    int64            `json:"minTile,omitempty"`
	DivisorOf  int64            `json:"divisorOf,omitempty"`
}

// PhaseSummary reports the search's phase structure (coarse sweep,
// frontier, refinement) as evaluated-candidate counts. Deterministic for a
// given request.
type PhaseSummary struct {
	Coarse       int64 `json:"coarse"`
	Refine       int64 `json:"refine"`
	FrontierSize int64 `json:"frontierSize"`
	Probes       int64 `json:"probes"` // frontier-detection probe evaluations
	Pruned       int64 `json:"pruned"`
	Evaluated    int64 `json:"evaluated"`
}

// TileSearchResponse is the search outcome plus its phase summary.
// Ways/Line echo the effective set-associative geometry and are omitted on
// the fully-associative model.
type TileSearchResponse struct {
	Nest       string                `json:"nest"`
	CacheElems int64                 `json:"cacheElems"`
	Ways       int64                 `json:"ways,omitempty"`
	Line       int64                 `json:"line,omitempty"`
	Result     tilesearch.ResultJSON `json:"result"`
	Phases     PhaseSummary          `json:"phases"`
}

// SimulateRequest runs a stack-distance simulation engine over the nest's
// reference trace. Watches are cache capacities in elements (or watchKB in
// kilobytes); perSite adds the per-reference-site breakdown. Engine selects
// "exact" (default — full StackSim trace walk), "analytic" (closed-form
// model evaluation, no trace) or "sampled" (SHARDS-style address-sampled
// estimate with a reported confidence envelope).
type SimulateRequest struct {
	NestRequest
	Watches []int64 `json:"watches,omitempty"`
	WatchKB []int64 `json:"watchKB,omitempty"`
	PerSite bool    `json:"perSite,omitempty"`
	Engine  string  `json:"engine,omitempty"`
}

// SamplingJSON reports the sampled engine's telemetry and error envelope.
type SamplingJSON struct {
	Log2Rate        int     `json:"log2Rate"` // sampling rate is 2^-log2Rate
	Rate            float64 `json:"rate"`
	Seed            uint64  `json:"seed"`
	SampledAccesses int64   `json:"sampledAccesses"`
	SampledDistinct int64   `json:"sampledDistinct"`
	Confidence      float64 `json:"confidence"` // 1-δ of the bound below
	MissBound       int64   `json:"missBound"`  // half-width around each miss estimate
}

// SimulateResponse is the simulation outcome. ModelExact is present only
// for the analytic engine (whether every closed-form component is exact);
// Sampling only for the sampled engine.
type SimulateResponse struct {
	Nest       string               `json:"nest"`
	Env        map[string]int64     `json:"env"`
	Engine     string               `json:"engine"`
	Length     int64                `json:"length"` // trace length in accesses
	Results    cachesim.ResultsJSON `json:"results"`
	ModelExact *bool                `json:"modelExact,omitempty"`
	Sampling   *SamplingJSON        `json:"sampling,omitempty"`
}

// key builders: endpoint tag, canonical spec key, then the endpoint's
// extra parameters, NUL-separated. Two requests share a key exactly when
// the canonical computation is identical.

func analyzeKey(spec *loopir.Spec) string {
	return "analyze\x00" + spec.Nest
}

func predictKey(spec *loopir.Spec, cfg core.CacheConfig, detail bool) string {
	k := "predict\x00" + spec.Key() + "\x00" + strconv.FormatInt(cfg.CapacityElems, 10)
	// Omitted ways must key exactly as before the field existed, so cached
	// fully-associative bytes keep being shared across releases; a present
	// ways keys on the effective geometry (the response echoes it), so
	// {ways:2} and {ways:2,line:1} collide and distinct geometries do not.
	if cfg.Ways > 0 {
		k += fmt.Sprintf("\x00ways=%d,line=%d", cfg.Ways, effectiveLine(cfg))
	}
	if detail {
		k += "\x00detail"
	}
	return k
}

func tileSearchKey(spec *loopir.Spec, req *TileSearchRequest, cfg core.CacheConfig) string {
	dims := tilesearch.SortedDims(req.Dims)
	var b strings.Builder
	b.WriteString("tilesearch\x00")
	b.WriteString(spec.Key())
	fmt.Fprintf(&b, "\x00%d\x00%d\x00%d\x00", cfg.CapacityElems, req.MinTile, req.DivisorOf)
	for i, d := range dims {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", d.Symbol, d.Max)
	}
	if cfg.Ways > 0 {
		fmt.Fprintf(&b, "\x00ways=%d,line=%d", cfg.Ways, effectiveLine(cfg))
	}
	return b.String()
}

func simulateKey(spec *loopir.Spec, watches []int64, perSite bool, eng cachesim.Engine) string {
	var b strings.Builder
	b.WriteString("simulate\x00")
	b.WriteString(spec.Key())
	b.WriteByte(0)
	for i, w := range watches {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(w, 10))
	}
	if perSite {
		b.WriteString("\x00persite")
	}
	// An omitted engine and an explicit "exact" are the same computation
	// and must share a key (and therefore cached bytes).
	if eng != cachesim.EngineExact {
		b.WriteString("\x00engine=")
		b.WriteString(string(eng))
	}
	return b.String()
}

// computeAnalyze is the /v1/analyze computation.
func (s *Service) computeAnalyze(ctx context.Context, spec *loopir.Spec) ([]byte, error) {
	a, err := s.getAnalysis(ctx, spec.Nest)
	if err != nil {
		return nil, err
	}
	return marshal(AnalyzeResponse{
		Nest:       a.Nest.Name,
		Source:     spec.Nest,
		Symbols:    a.Nest.SymbolNames(),
		Components: a.ComponentsJSON(),
	})
}

// computePredict is the /v1/predict computation: the frame-based fast path
// of the compiled model, on a pooled frame. A requested set-associative
// geometry routes through the conflict-aware model and is echoed in the
// response.
func (s *Service) computePredict(ctx context.Context, spec *loopir.Spec, cfg core.CacheConfig, detail bool) ([]byte, error) {
	a, err := s.getAnalysis(ctx, spec.Nest)
	if err != nil {
		return nil, err
	}
	f := a.GetFrame()
	defer a.PutFrame(f)
	f.Bind(spec.ExprEnv())
	rep, err := a.PredictMissesFrameConfig(f, cfg)
	if err != nil {
		return nil, err
	}
	resp := PredictResponse{
		Nest:       a.Nest.Name,
		Env:        spec.Env,
		CacheElems: cfg.CapacityElems,
		Accesses:   rep.Accesses,
		Misses:     rep.Total,
	}
	if cfg.Ways > 0 {
		resp.Ways = cfg.Ways
		resp.Line = effectiveLine(cfg)
	}
	if detail {
		resp.BySite = rep.BySite
	}
	return marshal(resp)
}

// computeTileSearch is the /v1/tilesearch computation. The search runs
// sequentially (Parallelism 1): concurrency in the serving layer comes
// from the worker pool, and nesting a second level of parallelism inside a
// pool slot would oversubscribe the host. A per-request obs registry
// collects the phase counters for the response.
func (s *Service) computeTileSearch(ctx context.Context, spec *loopir.Spec, req *TileSearchRequest, cfg core.CacheConfig) ([]byte, error) {
	return s.computeTileSearchProgress(ctx, spec, req, cfg, nil)
}

// computeTileSearchProgress is computeTileSearch with an optional phase
// callback: the NDJSON streaming path receives one event per completed
// search phase and the response bytes stay byte-identical to the
// non-streaming computation (progress only adds observations, never
// changes the search).
func (s *Service) computeTileSearchProgress(ctx context.Context, spec *loopir.Spec, req *TileSearchRequest, cfg core.CacheConfig, progress func(tilesearch.ProgressEvent)) ([]byte, error) {
	if len(req.Dims) == 0 {
		return nil, fmt.Errorf("%w: tilesearch request needs dims", errBadRequest)
	}
	a, err := s.getAnalysis(ctx, spec.Nest)
	if err != nil {
		return nil, err
	}
	m := obs.New()
	res, err := tilesearch.Search(a, tilesearch.Options{
		Dims:       tilesearch.SortedDims(req.Dims),
		CacheElems: cfg.CapacityElems,
		Ways:       cfg.Ways,
		LineElems:  cfg.LineElems,
		BaseEnv:    spec.ExprEnv(),
		MinTile:    req.MinTile,
		DivisorOf:  req.DivisorOf,
		Context:    ctx,
		Obs:        m,
		Progress:   progress,
	})
	if err != nil {
		return nil, err
	}
	resp := TileSearchResponse{
		Nest:       a.Nest.Name,
		CacheElems: cfg.CapacityElems,
	}
	if cfg.Ways > 0 {
		resp.Ways = cfg.Ways
		resp.Line = effectiveLine(cfg)
	}
	counters, gauges := m.Counters(), m.Gauges()
	resp.Result = res.JSON()
	resp.Phases = PhaseSummary{
		Coarse:       counters["search.candidates.coarse"],
		Refine:       counters["search.candidates.refine"],
		FrontierSize: gauges["search.frontier.size"],
		Probes:       counters["search.candidates.frontier"],
		Pruned:       counters["search.pruned"],
		Evaluated:    gauges["search.evaluated"],
	}
	return marshal(resp)
}

// computeSimulate is the /v1/simulate computation, dispatched on the
// engine: exact and sampled compile the trace and stream it through their
// simulator (against the engine's own trace-length budget); analytic
// evaluates the cached compiled model on a pooled frame — no trace, so no
// length gate, and the same request that 400s under engine=exact at
// n=2048 answers in microseconds of compute.
func (s *Service) computeSimulate(ctx context.Context, spec *loopir.Spec, watches []int64, perSite bool, eng cachesim.Engine) ([]byte, error) {
	s.engines[eng].Inc()
	if eng == cachesim.EngineAnalytic {
		return s.computeSimulateAnalytic(ctx, spec, watches, perSite)
	}
	nest, err := loopir.Parse(spec.Nest)
	if err != nil {
		return nil, err
	}
	p, err := trace.Compile(nest, spec.ExprEnv())
	if err != nil {
		return nil, err
	}
	length, err := p.Length()
	if err != nil {
		return nil, err
	}
	limit := s.cfg.MaxTraceLen
	if eng == cachesim.EngineSampled {
		limit = s.cfg.MaxSampledTraceLen
	}
	if length > limit {
		return nil, fmt.Errorf("%w: trace length %d exceeds limit %d for engine %s", errBadRequest, length, limit, eng)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var labels []string
	if perSite {
		labels = make([]string, len(p.Sites))
		for i, site := range p.Sites {
			labels[i] = site.Key()
		}
	}
	resp := SimulateResponse{
		Nest:   nest.Name,
		Env:    spec.Env,
		Engine: string(eng),
		Length: length,
	}
	if eng == cachesim.EngineSampled {
		// Fixed seed and an address-space-derived rate: the estimate is a
		// pure function of the request, so responses stay cacheable and
		// byte-deterministic like every other endpoint's.
		sim := cachesim.NewSampledSim(p.Size, len(p.Sites), watches, cachesim.DefaultLog2Rate(p.Size), 0)
		p.RunBlocks(trace.DefaultBlockSize, sim.AccessBlock)
		resp.Results = sim.Results().JSON(labels)
		st := sim.Stats()
		resp.Sampling = &SamplingJSON{
			Log2Rate:        st.Log2Rate,
			Rate:            st.Rate,
			Seed:            st.Seed,
			SampledAccesses: st.SampledAccesses,
			SampledDistinct: st.SampledDistinct,
			Confidence:      0.95,
			MissBound:       sim.MissBound(0.05),
		}
	} else {
		sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
		p.RunBlocks(trace.DefaultBlockSize, sim.AccessBlock)
		resp.Results = sim.Results().JSON(labels)
	}
	return marshal(resp)
}

// computeSimulateAnalytic is the engine=analytic path: the analysis is
// cached across requests (getAnalysis), so the steady state is a compiled-
// program evaluation per watched capacity on a pooled frame.
func (s *Service) computeSimulateAnalytic(ctx context.Context, spec *loopir.Spec, watches []int64, perSite bool) ([]byte, error) {
	a, err := s.getAnalysis(ctx, spec.Nest)
	if err != nil {
		return nil, err
	}
	f := a.GetFrame()
	defer a.PutFrame(f)
	f.Bind(spec.ExprEnv())
	res, info, err := analytic.SimulateFrame(a, f, watches)
	if err != nil {
		return nil, err
	}
	var labels []string
	if perSite {
		labels = analytic.SiteLabels(a.Nest)
	}
	return marshal(SimulateResponse{
		Nest:   a.Nest.Name,
		Env:    spec.Env,
		Engine: string(cachesim.EngineAnalytic),
		// The model counts the same accesses the trace would emit; the
		// cross-engine harness pins the equality.
		Length:     res.Accesses,
		Results:    res.JSON(labels),
		ModelExact: &info.Exact,
	})
}

// normWatches sorts, dedupes and validates the watch list so equivalent
// requests key and respond identically.
func normWatches(watches, watchKB []int64) ([]int64, error) {
	out := append([]int64(nil), watches...)
	for _, kb := range watchKB {
		out = append(out, experiments.KB(kb))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: simulate request needs watches or watchKB", errBadRequest)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	uniq := out[:1]
	for _, w := range out[1:] {
		if w != uniq[len(uniq)-1] {
			uniq = append(uniq, w)
		}
	}
	for _, w := range uniq {
		if w <= 0 {
			return nil, fmt.Errorf("%w: watch capacities must be positive, got %d", errBadRequest, w)
		}
	}
	return uniq, nil
}

// Compute resolves and computes a request body directly, bypassing HTTP,
// cache, and admission control — the "direct library call" the load
// generator verifies served bytes against. path selects the endpoint
// ("/v1/analyze", "/v1/predict", "/v1/tilesearch", "/v1/optimize",
// "/v1/simulate") and the returned bytes are exactly what the
// corresponding handler serves on a 200.
func (s *Service) Compute(ctx context.Context, path string, body []byte) ([]byte, error) {
	if path == "/v1/batch" {
		return s.computeBatchDirect(ctx, body)
	}
	_, compute, err := s.plan(path, body)
	if err != nil {
		return nil, err
	}
	return compute(ctx)
}

// statusOf maps a per-item batch error to the status code the equivalent
// single request would have received: the batch taxonomy is the endpoint
// taxonomy, applied per item.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrOverload):
		return 429
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return 504
	}
	return 400
}

// computeFn is a parsed request's computation, abstracted over the service
// instance that will run it: parseRequest resolves a (path, body) pair into
// its canonical cache key and a computeFn without needing a Service, which
// is what lets the cluster router derive shard keys through the exact same
// code path the service plans requests through.
type computeFn func(*Service, context.Context) ([]byte, error)

// parseRequest parses a request body for an endpoint path and returns its
// canonical cache key plus the computation that produces its response
// bytes. The HTTP handlers, Compute, the batch expander and the cluster
// router's key derivation all share this single resolution path, which is
// what makes served, directly-computed and cluster-routed bytes identical
// by construction.
func parseRequest(path string, body []byte) (string, computeFn, error) {
	switch path {
	case "/v1/analyze":
		var req AnalyzeRequest
		if err := decodeInto(body, &req); err != nil {
			return "", nil, err
		}
		spec, _, err := req.resolve()
		if err != nil {
			return "", nil, err
		}
		return analyzeKey(spec), func(s *Service, ctx context.Context) ([]byte, error) {
			return s.computeAnalyze(ctx, spec)
		}, nil
	case "/v1/predict":
		var req PredictRequest
		if err := decodeInto(body, &req); err != nil {
			return "", nil, err
		}
		spec, _, err := req.resolve()
		if err != nil {
			return "", nil, err
		}
		cacheElems, err := cacheElemsOf(req.CacheElems, req.CacheKB)
		if err != nil {
			return "", nil, err
		}
		cfg, err := assocConfigOf(req.Ways, req.Line, cacheElems)
		if err != nil {
			return "", nil, err
		}
		return predictKey(spec, cfg, req.Detail), func(s *Service, ctx context.Context) ([]byte, error) {
			return s.computePredict(ctx, spec, cfg, req.Detail)
		}, nil
	case "/v1/tilesearch":
		var req TileSearchRequest
		if err := decodeInto(body, &req); err != nil {
			return "", nil, err
		}
		spec, _, err := req.resolve()
		if err != nil {
			return "", nil, err
		}
		cacheElems, err := cacheElemsOf(req.CacheElems, req.CacheKB)
		if err != nil {
			return "", nil, err
		}
		cfg, err := assocConfigOf(req.Ways, req.Line, cacheElems)
		if err != nil {
			return "", nil, err
		}
		return tileSearchKey(spec, &req, cfg), func(s *Service, ctx context.Context) ([]byte, error) {
			return s.computeTileSearch(ctx, spec, &req, cfg)
		}, nil
	case "/v1/optimize":
		var req OptimizeRequest
		spec, cfg, err := planOptimize(body, &req)
		if err != nil {
			return "", nil, err
		}
		return optimizeKey(spec, &req, cfg), func(s *Service, ctx context.Context) ([]byte, error) {
			return s.computeOptimize(ctx, spec, &req, cfg)
		}, nil
	case "/v1/simulate":
		var req SimulateRequest
		if err := decodeInto(body, &req); err != nil {
			return "", nil, err
		}
		spec, _, err := req.resolve()
		if err != nil {
			return "", nil, err
		}
		watches, err := normWatches(req.Watches, req.WatchKB)
		if err != nil {
			return "", nil, err
		}
		eng, err := cachesim.ParseEngine(req.Engine)
		if err != nil {
			return "", nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		return simulateKey(spec, watches, req.PerSite, eng), func(s *Service, ctx context.Context) ([]byte, error) {
			return s.computeSimulate(ctx, spec, watches, req.PerSite, eng)
		}, nil
	}
	return "", nil, fmt.Errorf("%w: unknown endpoint %s", errBadRequest, path)
}

// plan binds parseRequest's outcome to this service instance. The closure
// is created once per plan-memo miss (planCached stores it), so the warm
// path still costs one map probe.
func (s *Service) plan(path string, body []byte) (string, func(context.Context) ([]byte, error), error) {
	key, fn, err := parseRequest(path, body)
	if err != nil {
		return "", nil, err
	}
	return key, func(ctx context.Context) ([]byte, error) {
		return fn(s, ctx)
	}, nil
}

// CanonicalKeyForRequest derives the canonical cache/shard key of a single-
// endpoint request body: the same key the service's own planner computes,
// produced by the same resolution path (decode, canonicalize, key-pack), so
// a router sharding on this key and a replica caching under it can never
// disagree. /v1/batch has no single key — a batch is a set of per-item keys
// (see ExpandBatch) — so it is rejected here.
func CanonicalKeyForRequest(path string, body []byte) (string, error) {
	if path == "/v1/batch" {
		return "", fmt.Errorf("%w: /v1/batch has per-item keys; use ExpandBatch", errBadRequest)
	}
	key, _, err := parseRequest(path, body)
	return key, err
}
