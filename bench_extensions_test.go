// Benchmarks for the extension experiments: ablations of the model's
// refinements, the fused four-index chain, loop-order ranking, and the
// exact success function.
package repro

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/tce"
	"repro/internal/tilesearch"
	"repro/internal/trace"
)

// BenchmarkAblationFullModel / BenchmarkAblationBareModel quantify the cost
// and accuracy impact of the span-cost refinements (see EXPERIMENTS.md):
// both analyze the two-index transform and evaluate one prediction; the
// reported rel-err metric compares against exact simulation at N=64.
func benchAblation(b *testing.B, opts core.Options) {
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		b.Fatal(err)
	}
	env, err := kernels.TwoIndexEnv(64, 16, 8, 8, 16)
	if err != nil {
		b.Fatal(err)
	}
	const cache = 1024
	// One-time accuracy measurement.
	a0, err := core.AnalyzeWithOptions(nest, opts)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := a0.PredictTotalFrameConfig(a0.SymTab().FrameOf(env), core.CacheConfig{CapacityElems: cache})
	if err != nil {
		b.Fatal(err)
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		b.Fatal(err)
	}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), []int64{cache})
	p.Run(sim.Access)
	m, _ := sim.Results().MissesFor(cache)
	rel := float64(pred-m) / float64(m)
	if rel < 0 {
		rel = -rel
	}
	b.ReportMetric(rel*100, "rel-err-%")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.AnalyzeWithOptions(nest, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.PredictTotalFrameConfig(a.SymTab().FrameOf(env), core.CacheConfig{CapacityElems: cache}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFullModel(b *testing.B) {
	benchAblation(b, core.DefaultOptions())
}

func BenchmarkAblationNoCarrierCorrection(b *testing.B) {
	benchAblation(b, core.Options{CarrierCorrection: false, ComplementRule: true})
}

func BenchmarkAblationNoComplementRule(b *testing.B) {
	benchAblation(b, core.Options{CarrierCorrection: true, ComplementRule: false})
}

// BenchmarkFusedFourIndexAnalysis measures the full TCE pipeline: op-min,
// fused-chain code generation, and cache analysis of the resulting
// imperfect nest.
func BenchmarkFusedFourIndexAnalysis(b *testing.B) {
	c, r := tce.FourIndexTransform()
	for i := 0; i < b.N; i++ {
		tree, err := tce.OpMin(c, r, expr.Env{"N": 64, "V": 32})
		if err != nil {
			b.Fatal(err)
		}
		nest, err := tce.GenFusedTransformChain("four-index-fused", tree.Sequence(), r)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Analyze(nest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopOrderRanking regenerates the loop-order extension experiment
// (predictions only).
func BenchmarkLoopOrderRanking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunLoopOrder(128, 1024, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 6 {
			b.Fatal("missing orders")
		}
	}
}

// BenchmarkSuccessFunction measures the exact success-function collection
// overhead relative to plain simulation.
func BenchmarkSuccessFunction(b *testing.B) {
	nest, err := kernels.TiledMatmul()
	if err != nil {
		b.Fatal(err)
	}
	env, err := kernels.MatmulEnv(32, 8, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := cachesim.NewStackSim(p.Size, len(p.Sites), nil)
		sf := sim.CollectExact()
		p.Run(sim.Access)
		if sf.MissesFor(1024) <= 0 {
			b.Fatal("no misses")
		}
	}
}

// BenchmarkSearchVsExhaustive reports the evaluation-count advantage of the
// §6 search over the full divisor grid.
func BenchmarkSearchVsExhaustive(b *testing.B) {
	nest, err := kernels.TiledMatmul()
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		b.Fatal(err)
	}
	opt := tilesearch.Options{
		Dims:       []tilesearch.Dim{{Symbol: "TI", Max: 64}, {Symbol: "TJ", Max: 64}, {Symbol: "TK", Max: 64}},
		CacheElems: 512,
		BaseEnv:    expr.Env{"N": 64},
		DivisorOf:  64,
	}
	var searchEvals, exEvals int
	for i := 0; i < b.N; i++ {
		res, err := tilesearch.Search(a, opt)
		if err != nil {
			b.Fatal(err)
		}
		searchEvals = res.Evaluated
		exOpt := opt
		exOpt.MinTile = 2
		ex, err := tilesearch.Exhaustive(a, exOpt)
		if err != nil {
			b.Fatal(err)
		}
		exEvals = ex.Evaluated
	}
	b.ReportMetric(float64(searchEvals), "search-evals")
	b.ReportMetric(float64(exEvals), "exhaustive-evals")
}
