package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/testutil"
	"repro/internal/tilesearch"
)

// TestSearchCandidatesMatchTreeOracle is the tile search's differential
// check against the tree-walking oracle. For each fixture it scores every
// tile vector the §6 search can evaluate — the coarse power-of-two grid
// closed under each refinement round's ±step moves, a superset of what the
// search scores — both through EvalCache.PredictTotalFrameConfig (the
// search's scoring call, with the unknown-bounds reduction over
// PredictMissesFrameConfig) and through Analysis.TreePredict, and requires
// equal values and equal errors. The searches themselves, sequential and
// with a worker pool, must report oracle scores for their best and frontier
// candidates.
func TestSearchCandidatesMatchTreeOracle(t *testing.T) {
	matmul := func(n int64) []tilesearch.Dim {
		return []tilesearch.Dim{{Symbol: "TI", Max: n}, {Symbol: "TJ", Max: n}, {Symbol: "TK", Max: n}}
	}
	fixtures := []struct {
		name string
		a    *core.Analysis
		opt  tilesearch.Options
	}{
		{"matmul", testutil.AnalyzedMatmul(t), tilesearch.Options{
			Dims:       matmul(64),
			CacheElems: 512,
			BaseEnv:    expr.Env{"N": 64},
			DivisorOf:  64,
		}},
		{"twoindex", testutil.AnalyzedTwoIndex(t), tilesearch.Options{
			Dims: []tilesearch.Dim{
				{Symbol: "TI", Max: 256}, {Symbol: "TJ", Max: 256},
				{Symbol: "TM", Max: 256}, {Symbol: "TN", Max: 256},
			},
			CacheElems: 8192,
			BaseEnv:    expr.Env{"NI": 256, "NJ": 256, "NM": 256, "NN": 256},
			DivisorOf:  256,
		}},
		{"matmul-unknown-bounds", testutil.AnalyzedMatmul(t), tilesearch.Options{
			Dims:          matmul(64),
			CacheElems:    512,
			BaseEnv:       expr.Env{"N": 4096},
			UnknownBounds: map[string]bool{"N": true},
		}},
		{"matmul-direct-mapped", testutil.AnalyzedMatmul(t), tilesearch.Options{
			Dims:       matmul(64),
			CacheElems: 512,
			Ways:       1,
			BaseEnv:    expr.Env{"N": 64},
			DivisorOf:  64,
		}},
		{"matmul-2way-unknown-bounds", testutil.AnalyzedMatmul(t), tilesearch.Options{
			Dims:          matmul(64),
			CacheElems:    512,
			Ways:          2,
			BaseEnv:       expr.Env{"N": 64},
			UnknownBounds: map[string]bool{"N": true},
			DivisorOf:     64,
		}},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			a, opt := fx.a, fx.opt
			cfg := core.CacheConfig{CapacityElems: opt.CacheElems, Ways: opt.Ways, LineElems: opt.LineElems}
			ec := core.NewEvalCache(a)
			f := a.NewFrame()
			f.Bind(opt.BaseEnv)
			compiled := func(tiles map[string]int64) (int64, error) {
				f.Bind(tiles)
				if opt.UnknownBounds == nil {
					return ec.PredictTotalFrameConfig(f, cfg)
				}
				rep, err := ec.PredictMissesFrameConfig(f, cfg)
				if err != nil {
					return 0, err
				}
				return boundFree(a, rep, opt.UnknownBounds), nil
			}
			oracle := func(tiles map[string]int64) (int64, error) {
				env := opt.BaseEnv.Clone()
				for k, v := range tiles {
					env[k] = v
				}
				rep, err := a.TreePredict(env, cfg)
				if err != nil {
					return 0, err
				}
				if opt.UnknownBounds == nil {
					return rep.Total, nil
				}
				return boundFree(a, rep, opt.UnknownBounds), nil
			}

			cands := searchSpace(opt)
			for _, tiles := range cands {
				got, gotErr := compiled(tiles)
				want, wantErr := oracle(tiles)
				if (gotErr == nil) != (wantErr == nil) ||
					(gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("tiles %v: compiled error %v, oracle error %v", tiles, gotErr, wantErr)
				}
				if got != want {
					t.Fatalf("tiles %v: compiled %d, oracle %d", tiles, got, want)
				}
			}

			var first *tilesearch.Result
			for _, j := range []int{1, 8} {
				o := opt
				o.Parallelism = j
				res, err := tilesearch.Search(a, o)
				if err != nil {
					t.Fatalf("j=%d: %v", j, err)
				}
				if res.Evaluated > len(cands) {
					t.Fatalf("j=%d: search scored %d vectors, more than the %d-vector superset", j, res.Evaluated, len(cands))
				}
				for _, c := range append([]tilesearch.Candidate{res.Best}, res.Frontier...) {
					want, err := oracle(c.Tiles)
					if err != nil {
						t.Fatal(err)
					}
					if c.Misses != want {
						t.Errorf("j=%d: search scored %v, oracle %d", j, c, want)
					}
				}
				if first == nil {
					first = res
				} else if !reflect.DeepEqual(res, first) {
					t.Errorf("j=%d result differs from j=1", j)
				}
			}
		})
	}
}

// boundFree is the unknown-bounds reduction: first touches are dropped,
// components whose stack distance mentions a bound count as misses, the
// rest keep their classification.
func boundFree(a *core.Analysis, rep *core.MissReport, bounds map[string]bool) int64 {
	var total int64
	for i, d := range rep.Detail {
		sd := a.Components[i].SD
		switch {
		case sd.Base.IsInf():
		case sd.Base.HasAnyVar(bounds) || (sd.Slope != nil && sd.Slope.HasAnyVar(bounds)):
			total += d.Count
		default:
			total += d.Misses
		}
	}
	return total
}

// searchSpace returns every tile vector a §6 search under opt can score:
// the coarse grid, closed under one-dimension ±step moves for each
// refinement step the search takes (MinTile/2 down to 1).
func searchSpace(opt tilesearch.Options) []map[string]int64 {
	minTile := opt.MinTile
	if minTile <= 0 {
		minTile = 4
	}
	ok := func(v, max int64) bool {
		return v >= 1 && v <= max && (opt.DivisorOf == 0 || opt.DivisorOf%v == 0)
	}
	seen := map[[8]int64]bool{}
	var out [][8]int64
	add := func(p [8]int64) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	var grid func(i int, p [8]int64)
	grid = func(i int, p [8]int64) {
		if i == len(opt.Dims) {
			add(p)
			return
		}
		n := 0
		for s := minTile; s <= opt.Dims[i].Max; s *= 2 {
			if ok(s, opt.Dims[i].Max) {
				p[i] = s
				grid(i+1, p)
				n++
			}
		}
		if n == 0 {
			p[i] = minTile
			grid(i+1, p)
		}
	}
	grid(0, [8]int64{})
	for step := minTile / 2; step >= 1; step /= 2 {
		round := out // the points before this round's moves
		for _, p := range round {
			for i, d := range opt.Dims {
				for _, v := range []int64{p[i] - step, p[i] + step} {
					if ok(v, d.Max) {
						q := p
						q[i] = v
						add(q)
					}
				}
			}
		}
	}
	tiles := make([]map[string]int64, len(out))
	for k, p := range out {
		tiles[k] = map[string]int64{}
		for i, d := range opt.Dims {
			tiles[k][d.Symbol] = p[i]
		}
	}
	return tiles
}
