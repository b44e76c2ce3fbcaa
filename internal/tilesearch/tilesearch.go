// Package tilesearch implements the paper's §6 tile-size search: an
// intelligent search over tile-size space driven by the symbolic
// stack-distance expressions of the cache model, rather than exhaustive
// enumeration or empirical trial runs.
//
// The search exploits the four-phase structure of the miss count as a
// function of tile size: misses decrease monotonically as tiles grow until
// some stack distance crosses the cache capacity, at which point they jump.
// Only "frontier" tile sizes — those that cannot be increased in any
// dimension without an additional stack distance exceeding the cache — can
// be optimal, so the search (1) sweeps a coarse grid, (2) keeps the
// frontier, (3) refines around it with halved steps, and (4) prunes
// dominated candidates.
//
// When loop bounds are unknown at compile time (the paper's Table 4), the
// search scores candidates using only the stack-distance expressions that do
// not mention the bound symbols, evaluated with a large surrogate bound.
//
// Candidate evaluation is memoized at two levels (see engine.go) and can be
// spread over a worker pool with Options.Parallelism; results are
// deterministic and identical across parallelism levels.
package tilesearch

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/obs"
)

// Dim describes one tunable tile dimension.
type Dim struct {
	Symbol string // tile-size symbol, e.g. "TI"
	Max    int64  // largest size to consider (typically the loop bound)
}

// Options configures a search.
type Options struct {
	// Dims are the tile dimensions to tune.
	Dims []Dim
	// CacheElems is the cache capacity in elements.
	CacheElems int64
	// Ways, when non-zero, scores candidates against a set-associative
	// geometry (core.CacheConfig{CacheElems, Ways, LineElems}) through the
	// conflict-aware prediction path, so the search can steer away from
	// pathological power-of-two strides. Zero keeps the fully-associative
	// model, byte-identical to earlier releases.
	Ways int64
	// LineElems is the cache line size in elements for the set-associative
	// geometry; it only takes effect alongside Ways (0 means one-element
	// lines).
	LineElems int64
	// BaseEnv binds every non-tile symbol (loop bounds). In unknown-bounds
	// mode these are surrogate values.
	BaseEnv expr.Env
	// CoarseStep is the initial grid step factor; tile sizes sweep powers
	// of two from MinTile to Dim.Max. MinTile defaults to 4.
	MinTile int64
	// UnknownBounds, when set, restricts scoring to components whose
	// stack-distance expressions avoid these symbols (the loop bounds),
	// reproducing the paper's compile-time search with symbolic bounds.
	UnknownBounds map[string]bool
	// DivisorOf, when non-zero, restricts tile sizes to divisors of this
	// value (exact tiling). Defaults to requiring power-of-two sizes only.
	DivisorOf int64
	// Parallelism is the number of concurrent model-evaluation workers.
	// 0 and 1 evaluate sequentially; negative values use GOMAXPROCS. The
	// search result is byte-identical at every parallelism level.
	Parallelism int
	// Context, when non-nil, cancels an in-flight search; Search and
	// Exhaustive then return the context's error.
	Context context.Context
	// Obs, when non-nil, receives the search's instruments: candidate
	// counts per phase ("search.candidates.*"), the frontier size, pruning
	// totals, the component-evaluation cache counters ("evalcache.*", see
	// core.NewEvalCacheWithMetrics) and the per-worker pool utilization
	// ("worker.*", the only instruments that legitimately vary with
	// Parallelism). Nil disables instrumentation at no measurable cost.
	Obs *obs.Metrics
	// Trace, when non-nil, records one span per search phase (coarse,
	// frontier, each refinement round) annotated with candidate counts.
	Trace *obs.Trace
	// Progress, when non-nil, is invoked synchronously from the search
	// goroutine after each phase completes: once for the coarse sweep, once
	// for the frontier cut, and once per refinement round. Events arrive in
	// a deterministic order with deterministic contents at every
	// Parallelism level (each phase is a barrier), which is what lets the
	// serving layer stream them as incremental NDJSON records.
	Progress func(ProgressEvent)
}

// ProgressEvent reports one completed search phase to Options.Progress.
type ProgressEvent struct {
	Phase      string    // "coarse", "frontier" or "refine"
	Round      int64     // refinement round (1-based); 0 for coarse/frontier
	Candidates int64     // candidates evaluated in this phase (frontier: survivors)
	Best       Candidate // best candidate known after this phase
}

// cacheConfig packs the cache geometry options into a core.CacheConfig.
// With Ways zero this is a fully-associative config: the capacity-only
// model.
func (opt Options) cacheConfig() core.CacheConfig {
	return core.CacheConfig{
		CapacityElems: opt.CacheElems,
		Ways:          opt.Ways,
		LineElems:     opt.LineElems,
	}
}

// Candidate is one evaluated tile assignment.
type Candidate struct {
	Tiles  map[string]int64
	Misses int64
}

// Result reports the search outcome.
type Result struct {
	Best      Candidate
	Frontier  []Candidate // frontier candidates from the coarse phase
	Evaluated int         // distinct tile assignments scored
	// Cache reports the component-evaluation cache behaviour; for a given
	// search it is deterministic across parallelism levels.
	Cache core.CacheStats
}

// Search runs the §6 algorithm against an analyzed nest. It is the
// tile-only entry point — a single structural variant; SearchPlans
// (plansearch.go) runs this same phase machinery once per legal structural
// variant, each with its own compiled analysis and evaluator.
func Search(a *core.Analysis, opt Options) (*Result, error) {
	if len(opt.Dims) == 0 {
		return nil, fmt.Errorf("tilesearch: no dimensions to search")
	}
	if err := opt.cacheConfig().Validate(); err != nil {
		return nil, err
	}
	if opt.MinTile <= 0 {
		opt.MinTile = 4
	}
	return newEvaluator(a, opt).run()
}

// run executes the four phases against the evaluator's analysis and
// options. Phases are barriers: each batch is evaluated (possibly in
// parallel) and reduced in input order, so the result — including
// tie-breaks — is byte-identical at every parallelism level.
func (ev *evaluator) run() (*Result, error) {
	opt := ev.opt
	m := opt.Obs

	// Phase 1: coarse sweep over power-of-two sizes.
	grid := make([][]int64, len(opt.Dims))
	for i, d := range opt.Dims {
		for s := opt.MinTile; s <= d.Max; s *= 2 {
			if opt.DivisorOf != 0 && opt.DivisorOf%s != 0 {
				continue
			}
			grid[i] = append(grid[i], s)
		}
		if len(grid[i]) == 0 {
			grid[i] = []int64{opt.MinTile}
		}
	}
	coarseAssigns := enumerate(grid, opt.Dims)
	m.Counter("search.candidates.coarse").Add(int64(len(coarseAssigns)))
	span := opt.Trace.Start("search.coarse")
	span.SetAttr("candidates", int64(len(coarseAssigns)))
	coarse, err := ev.evalBatch(coarseAssigns)
	span.End()
	if err != nil {
		return nil, err
	}
	if opt.Progress != nil {
		opt.Progress(ProgressEvent{Phase: "coarse", Candidates: int64(len(coarseAssigns)), Best: bestOf(coarse)})
	}

	// Phase 2: keep the frontier — candidates whose every single-dimension
	// doubling either leaves the grid or pushes an additional stack
	// distance past the cache capacity (detected as a miss increase).
	span = opt.Trace.Start("search.frontier")
	frontier, err := ev.frontier(coarse)
	if err != nil {
		span.End()
		return nil, err
	}
	span.SetAttr("size", int64(len(frontier)))
	span.End()
	m.Gauge("search.frontier.size").Set(int64(len(frontier)))
	if opt.Progress != nil {
		opt.Progress(ProgressEvent{Phase: "frontier", Candidates: int64(len(frontier)), Best: bestOf(frontier)})
	}

	// Phase 3: refine around frontier points with halved steps. Each
	// round's neighborhood is enumerated in deterministic order and scored
	// as one parallel batch.
	best := bestOf(frontier)
	pool := frontier
	round := int64(0)
	for step := opt.MinTile / 2; step >= 1; step /= 2 {
		round++
		var assigns []map[string]int64
		for _, c := range pool {
			for _, d := range opt.Dims {
				for _, delta := range []int64{-step, step} {
					v := c.Tiles[d.Symbol] + delta
					if v < 1 || v > d.Max {
						continue
					}
					if opt.DivisorOf != 0 && opt.DivisorOf%v != 0 {
						continue
					}
					assigns = append(assigns, nt2(cloneTiles(c.Tiles), d.Symbol, v))
				}
			}
		}
		m.Counter("search.candidates.refine").Add(int64(len(assigns)))
		span = opt.Trace.Start("search.refine")
		span.SetAttr("round", round)
		span.SetAttr("step", step)
		span.SetAttr("candidates", int64(len(assigns)))
		next, err := ev.evalBatch(assigns)
		span.End()
		if err != nil {
			return nil, err
		}
		pool = append(pool, next...)
		b := bestOf(pool)
		if b.Misses < best.Misses {
			best = b
		}
		if opt.Progress != nil {
			opt.Progress(ProgressEvent{Phase: "refine", Round: round, Candidates: int64(len(assigns)), Best: best})
		}
		// Phase 4: prune to the most promising candidates before the next
		// refinement round.
		before := len(pool)
		pool = topK(pool, 8)
		m.Counter("search.pruned").Add(int64(before - len(pool)))
	}

	m.Gauge("search.evaluated").Set(int64(ev.evaluated()))
	return &Result{
		Best:      best,
		Frontier:  frontier,
		Evaluated: ev.evaluated(),
		Cache:     ev.ec.Stats(),
	}, nil
}

// enumerate builds the cartesian product of the per-dimension grids in
// row-major order (last dimension fastest), matching a nested sequential
// sweep.
func enumerate(grid [][]int64, dims []Dim) []map[string]int64 {
	total := 1
	for _, g := range grid {
		total *= len(g)
	}
	out := make([]map[string]int64, 0, total)
	assign := map[string]int64{}
	var sweep func(i int)
	sweep = func(i int) {
		if i == len(dims) {
			out = append(out, cloneTiles(assign))
			return
		}
		for _, s := range grid[i] {
			assign[dims[i].Symbol] = s
			sweep(i + 1)
		}
	}
	sweep(0)
	return out
}

// frontier keeps coarse candidates that cannot be doubled in any dimension
// without either leaving the grid or increasing the miss count. Doubled
// points in the power-of-two coarse grid are themselves coarse points, so
// this phase runs on cache hits and needs no parallel batch.
func (ev *evaluator) frontier(coarse []Candidate) ([]Candidate, error) {
	probes := ev.opt.Obs.Counter("search.candidates.frontier")
	var out []Candidate
	for _, c := range coarse {
		isFrontier := true
		for _, d := range ev.opt.Dims {
			v := c.Tiles[d.Symbol] * 2
			if v > d.Max {
				continue
			}
			if ev.opt.DivisorOf != 0 && ev.opt.DivisorOf%v != 0 {
				continue
			}
			probes.Inc()
			bigger, err := ev.eval(nt2(cloneTiles(c.Tiles), d.Symbol, v), ev.seqFrame)
			if err != nil {
				return nil, err
			}
			if bigger.Misses <= c.Misses {
				// growing this dimension does not hurt: not on the frontier
				isFrontier = false
				break
			}
		}
		if isFrontier {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = []Candidate{bestOf(coarse)}
	}
	return topK(out, 8), nil
}

func bestOf(cs []Candidate) Candidate {
	best := cs[0]
	for _, c := range cs[1:] {
		if c.Misses < best.Misses {
			best = c
		}
	}
	return best
}

func topK(cs []Candidate, k int) []Candidate {
	sorted := append([]Candidate(nil), cs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Misses < sorted[j].Misses })
	seen := map[string]bool{}
	var out []Candidate
	for _, c := range sorted {
		key := fmt.Sprint(c.Tiles)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, c)
		if len(out) == k {
			break
		}
	}
	return out
}

func cloneTiles(t map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

func nt2(t map[string]int64, k string, v int64) map[string]int64 {
	t[k] = v
	return t
}

// tileKey packs the assignment's tile values in dimension order into a
// fixed-width binary string: the candidate-cache key. Dimension order is
// fixed for a search, so the symbol names need not appear in the key (the
// fmt-rendered form this replaces cost more than some candidate scores).
func tileKey(t map[string]int64, dims []Dim) string {
	buf := make([]byte, 0, 8*len(dims))
	for _, d := range dims {
		v := t[d.Symbol]
		buf = append(buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(buf)
}

// String renders a candidate as (TI=64, TJ=16, ...).
func (c Candidate) String() string {
	keys := make([]string, 0, len(c.Tiles))
	for k := range c.Tiles {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, c.Tiles[k])
	}
	return fmt.Sprintf("(%s) misses=%d", joinComma(parts), c.Misses)
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}
