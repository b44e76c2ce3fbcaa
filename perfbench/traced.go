package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/loopir"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/tilesearch"
)

// Shares of -seconds the traced run gives each of its phases.
const (
	httpShare    = 0.3 // the workload against an analysisd child
	inProcShare  = 0.2 // each of the untraced and traced in-process replays
	probeShare   = 0.2 // the per-layer probes
	clusterShare = 0.1 // each of the direct and routed hot-repeat loops
)

// tracedRun measures the per-layer metrics of one workload. Spans are kept
// in memory and written to spansDir when the run ends.
func tracedRun(name string, seed int64, seconds float64, bin, spansDir string) (*result, error) {
	w, err := generate(name, seed, streamLen(name, seconds))
	if err != nil {
		return nil, err
	}
	phase := func(share float64) time.Duration {
		return time.Duration(share * seconds * float64(time.Second))
	}
	tr := obs.NewTrace()
	ms := map[string]metric{}

	// The workload over HTTP, for the client-side latencies.
	srv, err := startServer(bin)
	if err != nil {
		return nil, err
	}
	c := newClient(srv.addr)
	if err := c.prime(w.Prime); err != nil {
		srv.kill()
		return nil, err
	}
	runtime.GC()
	httpOuts, _ := runLoop(w, phase(httpShare), c.do)
	c.close()
	if err := srv.stop(); err != nil {
		return nil, err
	}

	// The same stream in-process through the service's handler, untraced
	// and then traced, each on a fresh service so never-seen requests stay
	// never-seen.
	plain, err := replay(w, phase(inProcShare), nil)
	if err != nil {
		return nil, err
	}
	traced, err := replay(w, phase(inProcShare), tr)
	if err != nil {
		return nil, err
	}

	// Verify every answer of the three passes.
	sent := max(len(httpOuts), len(plain.outs), len(traced.outs))
	refs, err := references(w.Stream[:min(sent, len(w.Stream))])
	if err != nil {
		return nil, err
	}
	attempted, failed := 0, 0
	for _, outs := range [][]outcome{httpOuts, plain.outs, traced.outs} {
		for _, o := range outs {
			attempted++
			if o.status != http.StatusOK || o.sum != refs[o.idx%len(refs)].sum {
				failed++
			}
		}
	}

	probeCount, err := probeLayers(w, phase(probeShare), tr)
	if err != nil {
		return nil, err
	}
	hop, err := clusterHop(seed, phase(clusterShare))
	if err != nil {
		return nil, err
	}

	recs := tr.Records()
	if err := writeSpans(spansDir, fmt.Sprintf("%s-seed%d.json", name, seed), recs); err != nil {
		return nil, err
	}
	st := spanStats(recs)

	ms["client.latency_p99_ms"] = metric{percentileMs(httpOuts, 0.99), "ms"}
	computeUs := st.p50("service", 1e3)
	ms["service.compute_us"] = metric{computeUs, "us"}
	ms["http.overhead_us"] = metric{percentileMs(httpOuts, 0.5)*1e3 - computeUs, "us"}
	d := traced.counters
	ms["service.cache.hit_ratio"] = metric{ratio(d["service.cache.hits"], d["service.cache.lookups"]), "ratio"}
	planHits := d["service.plans.hits"] + d["service.batchplans.hits"]
	ms["service.plans.hit_ratio"] = metric{ratio(planHits, planHits+d["service.plans.misses"]+d["service.batchplans.misses"]), "ratio"}
	ms["service.cache.evictions_per_item"] = metric{ratio(d["service.cache.evictions"], int64(traced.items)), "1/item"}
	ms["service.analyses.hit_ratio"] = metric{ratio(d["service.analyses.hits"], d["service.analyses.lookups"]), "ratio"}
	ms["runtime.alloc_bytes_per_item"] = metric{ratio(int64(plain.allocBytes), int64(plain.items)), "B/item"}
	ms["trace.overhead_ratio"] = metric{traced.itemsPerS() / plain.itemsPerS(), "ratio"}

	ms["loopir.key_us"] = metric{st.p50("loopir.key", 1e3), "us"}
	ms["loopir.parse_us"] = metric{st.p50("loopir.parse", 1e3), "us"}
	ms["core.analyze_ms"] = metric{st.p50("core.analyze", 1e6), "ms"}
	for _, stage := range []string{"class", "partition", "span", "compile"} {
		ms["core.analyze."+stage+"_ms"] = metric{st.attrMedian("core.analyze", stage+"_ns") / 1e6, "ms"}
	}
	ms["core.analyze.allocs"] = metric{st.attrMedian("core.analyze", "allocs"), "count"}
	ms["expr.programs"] = metric{st.attrMedian("core.analyze", "programs"), "count"}
	ms["core.predict_fa_us"] = metric{st.p50("core.predict_fa", 1e3), "us"}
	ms["core.predict_conflict_us"] = metric{st.p50("core.predict_conflict", 1e3), "us"}
	ms["tilesearch.search_ms"] = metric{st.p50("tilesearch.search", 1e6), "ms"}
	ms["tilesearch.candidates"] = metric{st.attrMedian("tilesearch.search", "candidates"), "count"}
	ms["core.evalcache.hit_ratio"] = metric{ratio(st.attrSum("tilesearch.search", "evalcache_hits"), st.attrSum("tilesearch.search", "evalcache_lookups")), "ratio"}
	ms["expr.frame_evals_per_search"] = metric{st.attrMedian("tilesearch.search", "frame_evals"), "count"}
	ms["tilesearch.plans_ms"] = metric{st.p50("tilesearch.plans", 1e6), "ms"}
	ms["tilesearch.variants"] = metric{st.attrMedian("tilesearch.plans", "variants"), "count"}
	ms["cluster.hop_us"] = metric{hop.hopUs, "us"}
	ms["cluster.keymemo.hit_ratio"] = metric{hop.keymemoHitRatio, "ratio"}

	fmt.Printf("traced: %d http, %d+%d in-process requests, %d probed, %d spans\n",
		len(httpOuts), len(plain.outs), len(traced.outs), probeCount, len(recs))
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// pass is one in-process replay of a workload.
type pass struct {
	outs       []outcome
	items      int
	elapsed    time.Duration
	counters   map[string]int64 // service counter deltas over the window
	allocBytes uint64           // heap bytes allocated over the window
}

func (p *pass) itemsPerS() float64 { return float64(p.items) / p.elapsed.Seconds() }

// replay primes a fresh in-process service and drives the workload through
// its HTTP handler, without a network, from `clients` goroutines. With a
// trace it records one "service" span per request.
func replay(w *workload, d time.Duration, tr *obs.Trace) (*pass, error) {
	m := obs.New()
	svc := service.New(service.Config{Obs: m})
	defer svc.Close()
	h := svc.Handler()
	send := func(q request) (int, [sha256.Size]byte) {
		s := tr.Start("service")
		status, sum := serveInProcess(h, q)
		s.End()
		return status, sum
	}
	for _, q := range w.Prime {
		if status, _ := serveInProcess(h, q); status != http.StatusOK {
			return nil, fmt.Errorf("in-process priming %s answered %d", q.Path, status)
		}
	}
	before := m.Counters()
	runtime.GC()
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	outs, elapsed := runLoop(w, d, send)
	runtime.ReadMemStats(&ms1)
	p := &pass{outs: outs, elapsed: elapsed, counters: delta(before, m.Counters()), allocBytes: ms1.TotalAlloc - ms0.TotalAlloc}
	for _, o := range outs {
		if o.status == http.StatusOK {
			p.items += w.Stream[o.idx%len(w.Stream)].Items
		}
	}
	return p, nil
}

// hashWriter is a ResponseWriter that keeps only the status and the
// SHA-256 of the body.
type hashWriter struct {
	header http.Header
	status int
	h      hash.Hash
}

func (hw *hashWriter) Header() http.Header         { return hw.header }
func (hw *hashWriter) Write(b []byte) (int, error) { return hw.h.Write(b) }
func (hw *hashWriter) WriteHeader(code int) {
	if hw.status == 0 {
		hw.status = code
	}
}

func serveInProcess(h http.Handler, q request) (int, [sha256.Size]byte) {
	var sum [sha256.Size]byte
	req, err := http.NewRequest(http.MethodPost, "http://perfbench"+q.Path, bytes.NewReader(q.Body))
	if err != nil {
		return 0, sum
	}
	hw := &hashWriter{header: http.Header{}, h: sha256.New()}
	h.ServeHTTP(hw, req)
	if hw.status == 0 {
		hw.status = http.StatusOK
	}
	hw.h.Sum(sum[:0])
	return hw.status, sum
}

// probeLayers calls each layer's public functions the way the service
// would for each request of the workload, in stream order, sequentially,
// until d has passed: key derivation (loopir, through the service's own
// resolver), parse (loopir), analysis (core), per-row prediction (core),
// tile search and plan search (tilesearch). Each call is a span under one
// root span per request. It returns the number of requests probed.
func probeLayers(w *workload, d time.Duration, tr *obs.Trace) (int, error) {
	deadline := time.Now().Add(d)
	n := 0
	for ; time.Now().Before(deadline) && (w.Cyclic || n < len(w.Stream)); n++ {
		q := w.Stream[n%len(w.Stream)]
		root := tr.Start("request")
		root.SetAttr("index", int64(n))
		err := probe(q, root)
		root.End()
		if err != nil {
			return n, fmt.Errorf("probing request %d (%s): %w", n, q.Path, err)
		}
	}
	return n, nil
}

func probe(q request, root *obs.Span) error {
	var b body
	if q.Path == "/v1/batch" {
		var env struct{ Candidates body }
		if err := json.Unmarshal(q.Body, &env); err != nil {
			return err
		}
		b = env.Candidates
	} else if err := json.Unmarshal(q.Body, &b); err != nil {
		return err
	}

	s := root.Child("loopir.key")
	var err error
	if q.Path == "/v1/batch" {
		_, err = service.ExpandBatch(q.Body, maxBatchItems)
	} else {
		_, err = service.CanonicalKeyForRequest(q.Path, q.Body)
	}
	s.End()
	if err != nil {
		return err
	}

	src, env := b.Nest, expr.Env{}
	for k, v := range b.Env {
		env[k] = v
	}
	if b.Kernel != "" {
		nest, kenv, err := experiments.BuildKernel(b.Kernel, b.N, b.Tiles)
		if err != nil {
			return err
		}
		src, env = loopir.Unparse(nest), kenv
	}
	s = root.Child("loopir.parse")
	nest, err := loopir.Parse(src)
	s.End()
	if err != nil {
		return err
	}
	cfg := core.CacheConfig{CapacityElems: b.CacheElems, Ways: b.Ways, LineElems: b.Line}
	if b.CacheKB > 0 {
		cfg.CapacityElems = experiments.KB(b.CacheKB)
	}

	if q.Path == "/v1/optimize" {
		m := obs.New()
		s = root.Child("tilesearch.plans")
		_, err = tilesearch.SearchPlans(nest, tilesearch.PlanOptions{
			Options: tilesearch.Options{
				CacheElems: cfg.CapacityElems, Ways: cfg.Ways, LineElems: cfg.LineElems,
				BaseEnv: env, Obs: m,
			},
			Permute: true, Fuse: true, AutoTile: true, MaxVariants: b.MaxVariants,
		})
		s.SetAttr("variants", m.Counters()["plansearch.variants"])
		s.End()
		return err
	}

	m := obs.New()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	s = root.Child("core.analyze")
	opts := core.DefaultOptions()
	opts.Obs = m
	a, err := core.AnalyzeWithOptions(nest, opts)
	s.End()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	timers := m.Timers()
	for _, stage := range []string{"class", "partition", "span", "compile"} {
		s.SetAttr(stage+"_ns", timers["analyze."+stage].Nanos)
	}
	s.SetAttr("allocs", int64(ms1.Mallocs-ms0.Mallocs))
	s.SetAttr("programs", m.Gauges()["expr.programs"])

	switch q.Path {
	case "/v1/predict":
		return predictSpan(a, env, cfg, root)
	case "/v1/batch":
		dims := b.Dims.([]any)
		for _, row := range b.Sets {
			for i, v := range row {
				env[dims[i].(string)] = v
			}
			if err := predictSpan(a, env, cfg, root); err != nil {
				return err
			}
		}
	case "/v1/tilesearch":
		dims := map[string]int64{}
		for k, v := range b.Dims.(map[string]any) {
			dims[k] = int64(v.(float64))
		}
		m := obs.New()
		s = root.Child("tilesearch.search")
		_, err := tilesearch.Search(a, tilesearch.Options{
			Dims: tilesearch.SortedDims(dims), CacheElems: cfg.CapacityElems,
			Ways: cfg.Ways, LineElems: cfg.LineElems, BaseEnv: env, Obs: m,
		})
		s.End()
		c := m.Counters()
		s.SetAttr("candidates", c["search.candidates.coarse"]+c["search.candidates.refine"]+c["search.candidates.frontier"])
		s.SetAttr("evalcache_hits", c["evalcache.hits"])
		s.SetAttr("evalcache_lookups", c["evalcache.lookups"])
		s.SetAttr("frame_evals", c["evalcache.frame_evals"])
		return err
	}
	return nil
}

// predictSpan predicts one binding on a pooled frame, as the service does,
// under a span named for the model it takes.
func predictSpan(a *core.Analysis, env expr.Env, cfg core.CacheConfig, root *obs.Span) error {
	name := "core.predict_fa"
	if cfg.Ways > 0 {
		name = "core.predict_conflict"
	}
	f := a.GetFrame()
	f.Bind(env)
	s := root.Child(name)
	_, err := a.PredictMissesFrameConfig(f, cfg)
	s.End()
	a.PutFrame(f)
	return err
}

// hopResult is the router's added latency on the hot-repeat request set.
type hopResult struct {
	hopUs           float64
	keymemoHitRatio float64
}

// clusterHop runs the hot-repeat request set against one replica directly
// and then through a consistent-hash router in front of it (an in-process
// cluster.StartLocal(1)), and reports the difference of the two p50s.
func clusterHop(seed int64, d time.Duration) (*hopResult, error) {
	w, err := generate("hot-repeat", seed, 0)
	if err != nil {
		return nil, err
	}
	m := obs.New()
	lc, err := cluster.StartLocal(1, service.Config{}, cluster.Config{Obs: m})
	if err != nil {
		return nil, err
	}
	direct := newClient(strings.TrimPrefix(lc.Replicas()[0], "http://"))
	routed := newClient(strings.TrimPrefix(lc.URL(), "http://"))
	err = routed.prime(w.Prime)
	before := m.Counters()
	var directOuts, routedOuts []outcome
	if err == nil {
		directOuts, _ = runLoop(w, d, direct.do)
		routedOuts, _ = runLoop(w, d, routed.do)
	}
	c := delta(before, m.Counters())
	direct.close()
	routed.close()
	if cerr := lc.Close(context.Background()); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("cluster hop: %w", err)
	}
	for _, outs := range [][]outcome{directOuts, routedOuts} {
		for _, o := range outs {
			if o.status != http.StatusOK {
				return nil, fmt.Errorf("cluster hop: request %d answered %d", o.idx, o.status)
			}
		}
	}
	return &hopResult{
		hopUs:           (percentileMs(routedOuts, 0.5) - percentileMs(directOuts, 0.5)) * 1e3,
		keymemoHitRatio: ratio(c["router.keymemo.hits"], c["router.keymemo.hits"]+c["router.keymemo.misses"]),
	}, nil
}

func writeSpans(dir, file string, recs []obs.SpanRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}

// stats groups span records by name, with each span's self time: its
// duration minus the durations of its children.
type stats struct {
	self  map[string][]float64
	attrs map[string][]map[string]int64
}

func spanStats(recs []obs.SpanRecord) *stats {
	child := map[int64]int64{}
	for _, r := range recs {
		if r.Parent != 0 {
			child[r.Parent] += r.Nanos
		}
	}
	st := &stats{self: map[string][]float64{}, attrs: map[string][]map[string]int64{}}
	for _, r := range recs {
		st.self[r.Name] = append(st.self[r.Name], float64(r.Nanos-child[r.ID]))
		st.attrs[r.Name] = append(st.attrs[r.Name], r.Attrs)
	}
	return st
}

// p50 is the median self time of the named spans in units of div
// nanoseconds; 0 when the workload made no such call.
func (st *stats) p50(name string, div float64) float64 {
	return median(st.self[name]) / div
}

func (st *stats) attrMedian(name, key string) float64 {
	var vs []float64
	for _, a := range st.attrs[name] {
		vs = append(vs, float64(a[key]))
	}
	return median(vs)
}

func (st *stats) attrSum(name, key string) int64 {
	var sum int64
	for _, a := range st.attrs[name] {
		sum += a[key]
	}
	return sum
}
