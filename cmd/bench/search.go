package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/tilesearch"
)

// componentExprs lists every component expression of an analysis: counts,
// stack-distance bases and slopes, free ranges — what one model
// evaluation computes.
func componentExprs(a *core.Analysis) []*expr.Expr {
	var out []*expr.Expr
	for _, c := range a.Components {
		out = append(out, c.Count, c.SD.Base)
		if c.SD.Slope != nil {
			out = append(out, c.SD.Slope)
		}
		if c.FreeRange != nil {
			out = append(out, c.FreeRange)
		}
	}
	return out
}

// evalCompiled runs every program against the frame and returns a
// wrapping checksum of the results, so the work cannot be discarded and
// tests can compare it with the tree walk.
func evalCompiled(progs []*expr.Program, f *expr.Frame) (int64, error) {
	var sum int64
	for _, p := range progs {
		v, err := p.Eval(f)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// searchOptions is the matmul n=64 tile search the tilesearch tests and
// goldens pin.
func searchOptions(n int64) tilesearch.Options {
	return tilesearch.Options{
		Dims: []tilesearch.Dim{
			{Symbol: "TI", Max: n}, {Symbol: "TJ", Max: n}, {Symbol: "TK", Max: n},
		},
		CacheElems: experiments.KB(16),
		BaseEnv:    expr.Env{"N": n},
		DivisorOf:  n,
	}
}

// evalRows measures compiled evaluation of every component expression of
// the matmul n=64 analysis, and the full tile search (fresh caches per op,
// so per-candidate scoring dominates).
func evalRows(*config) ([]Row, error) {
	w, err := newMatmul(64, 8)
	if err != nil {
		return nil, err
	}
	exprs := componentExprs(w.a)
	tab := w.a.SymTab()
	var progs []*expr.Program
	for _, e := range exprs {
		progs = append(progs, expr.Compile(e, tab))
	}
	f := tab.FrameOf(w.env)
	compiled, err := measure("expr-compiled", "ns/eval", float64(len(progs)), func() error {
		_, err := evalCompiled(progs, f)
		return err
	})
	if err != nil {
		return nil, err
	}
	search, err := measure("search", "ms", 1e6, func() error {
		_, err := tilesearch.Search(w.a, searchOptions(64))
		return err
	})
	return []Row{compiled, search}, err
}

// optWorkload is one joint-search configuration: an untiled BuildKernel
// kind, a bound and a cache geometry (ways 0 selects the fully-associative
// model).
type optWorkload struct {
	name, kernel            string
	n, cacheKB, ways, lineE int64
}

// optWorkloads are the unfused two-index chain at two sizes, where fusing
// the chain is the win (Fig. 5 → Fig. 6 of the paper), and the naive
// matmul against a set-associative geometry, where loop order and tiling
// both matter.
var optWorkloads = []optWorkload{
	{name: "twoindexchain-n32", kernel: "twoindexchain", n: 32, cacheKB: 2},
	{name: "twoindexchain-n64", kernel: "twoindexchain", n: 64, cacheKB: 8},
	{name: "matmul-naive-n128-8way", kernel: "matmul-naive", n: 128, cacheKB: 16, ways: 8, lineE: 4},
}

// search runs the joint plan search (permutation × fusion × auto-tiling)
// or, with joint false, the tile-only baseline: the identity variant
// alone, the nest exactly as written, scored by the same machinery.
func (wl optWorkload) search(joint bool) (*tilesearch.PlanResult, error) {
	nest, env, err := experiments.BuildKernel(wl.kernel, wl.n, nil)
	if err != nil {
		return nil, err
	}
	return tilesearch.SearchPlans(nest, tilesearch.PlanOptions{
		Options: tilesearch.Options{
			CacheElems:  experiments.KB(wl.cacheKB),
			Ways:        wl.ways,
			LineElems:   wl.lineE,
			BaseEnv:     env,
			Parallelism: -1,
		},
		Permute:  joint,
		Fuse:     joint,
		AutoTile: joint,
	})
}

// optRows measures both searches per workload: what the structural axes
// buy in predicted misses, and what enumerating them costs.
func optRows(*config) ([]Row, error) {
	var rows []Row
	for _, wl := range optWorkloads {
		for _, joint := range []bool{false, true} {
			name := wl.name + ".tile_only"
			if joint {
				name = wl.name + ".joint"
			}
			var res *tilesearch.PlanResult
			r, err := measure(name, "ms", 1e6, func() (err error) {
				res, err = wl.search(joint)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			best := res.Best()
			fmt.Fprintf(os.Stderr, "  %s: best plan %s\n", name, best.Plan)
			rows = append(rows, r, Row{Name: name + "_misses", Unit: "misses", Value: float64(best.Result.Best.Misses)})
		}
	}
	return rows, nil
}
