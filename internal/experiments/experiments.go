// Package experiments defines every table and figure of the paper's
// evaluation as a runnable experiment, shared by the command-line tools
// (cmd/cachechar, cmd/tilesearch, cmd/smpbench) and the benchmark harness
// (bench_test.go at the repository root). Each runner returns structured
// rows so that callers can render, assert, or benchmark them uniformly.
//
// Units: the paper reports cache sizes in bytes of double-precision data;
// internally everything is element-granular, so 64 KB = 8192 elements and
// 256 KB = 32768 elements.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/obs"
	"repro/internal/smp"
	"repro/internal/tilesearch"
	"repro/internal/trace"
)

// ElemBytes is the size of one array element (double precision).
const ElemBytes = 8

// KB converts a kilobyte count into a cache capacity in elements.
func KB(kb int64) int64 { return kb * 1024 / ElemBytes }

// MissRow is one row of Tables 2 and 3: predicted vs simulated misses.
type MissRow struct {
	Label      string
	Bounds     string
	Tiles      string
	CacheBytes int64
	Predicted  int64
	Simulated  int64 // -1 when simulation was skipped
	PaperPred  int64 // the paper's reported prediction (0 if n/a)
	PaperSim   int64 // the paper's reported sim-cache count (0 if n/a)
}

// RelErr returns |Predicted-Simulated|/Simulated.
func (r MissRow) RelErr() float64 {
	if r.Simulated <= 0 {
		return 0
	}
	d := r.Predicted - r.Simulated
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(r.Simulated)
}

// Table2Config is one row's parameters for the two-index transform.
type Table2Config struct {
	NI, NJ, NM, NN int64
	TI, TJ, TM, TN int64
	CacheKB        int64
	PaperPred      int64
	PaperSim       int64
}

// Table2Configs reproduces the six rows of Table 2.
func Table2Configs() []Table2Config {
	return []Table2Config{
		{256, 256, 256, 256, 128, 64, 64, 128, 256, 1048576, 1066774},
		{256, 256, 256, 256, 64, 128, 128, 64, 256, 1114112, 1119659},
		{512, 512, 512, 512, 128, 128, 128, 128, 256, 6815744, 6822800},
		{256, 256, 256, 256, 64, 64, 64, 128, 64, 34471936, 34472689},
		{256, 256, 256, 256, 128, 64, 64, 128, 64, 34471936, 34472209},
		{512, 256, 256, 512, 128, 64, 64, 128, 64, 137232384, 137761584},
	}
}

// Table3Config is one row's parameters for the tiled matmul.
type Table3Config struct {
	N          int64
	TI, TJ, TK int64
	CacheKB    int64
	PaperPred  int64
	PaperSim   int64
}

// Table3Configs reproduces the six rows of Table 3. The fourth row's tile
// tuple is (64,32,32) in our loop order; the paper's text renders it as
// "(32 64 32)", but only the (64,32,32) assignment reproduces the paper's
// own predicted count (1310720), so we take the rendering as a transposition
// (see EXPERIMENTS.md).
func Table3Configs() []Table3Config {
	return []Table3Config{
		{512, 32, 32, 32, 64, 8650752, 8655485},
		{512, 64, 64, 64, 64, 6291456, 6238845},
		{512, 128, 128, 128, 64, 136314880, 136319615},
		{256, 64, 32, 32, 16, 1310720, 1312382},
		{256, 64, 64, 64, 16, 17301504, 17303166},
		{256, 32, 64, 128, 16, 17170432, 17172096},
	}
}

// analyzedTwoIndex and analyzedMatmul cache the analyses.
var (
	twoIndexAnalysis *core.Analysis
	matmulAnalysis   *core.Analysis
)

// TwoIndexAnalysis returns the (cached) analysis of the tiled two-index
// transform.
func TwoIndexAnalysis() (*core.Analysis, error) {
	if twoIndexAnalysis == nil {
		nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
		if err != nil {
			return nil, err
		}
		twoIndexAnalysis, err = core.Analyze(nest)
		if err != nil {
			return nil, err
		}
	}
	return twoIndexAnalysis, nil
}

// AnalyzedKernel builds a fresh (uncached) full-model analysis of the named
// symbolic kernel with observability attached. The cmd tools use it when
// emitting run reports: the cached TwoIndexAnalysis/MatmulAnalysis variants
// would skip the analyze stage entirely on a warm cache, leaving the
// "analyze.*" timers empty for the run being reported.
func AnalyzedKernel(kind string, m *obs.Metrics) (*core.Analysis, error) {
	var (
		nest *loopir.Nest
		err  error
	)
	switch kind {
	case "twoindex":
		nest, err = kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	case "matmul":
		nest, err = kernels.TiledMatmul()
	default:
		return nil, fmt.Errorf("experiments: unknown symbolic kernel %q", kind)
	}
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Obs = m
	return core.AnalyzeWithOptions(nest, opts)
}

// MatmulAnalysis returns the (cached) analysis of the tiled matmul.
func MatmulAnalysis() (*core.Analysis, error) {
	if matmulAnalysis == nil {
		nest, err := kernels.TiledMatmul()
		if err != nil {
			return nil, err
		}
		matmulAnalysis, err = core.Analyze(nest)
		if err != nil {
			return nil, err
		}
	}
	return matmulAnalysis, nil
}

// RunTable2 evaluates Table 2. With simulate=false only the analytical
// predictions are computed (fast); with simulate=true the exact trace is
// run through the stack simulator (minutes at the paper's sizes).
func RunTable2(simulate bool) ([]MissRow, error) {
	a, err := TwoIndexAnalysis()
	if err != nil {
		return nil, err
	}
	var rows []MissRow
	for i, c := range Table2Configs() {
		env, err := kernels.TwoIndexEnvDims(c.NI, c.NJ, c.NM, c.NN, c.TI, c.TJ, c.TM, c.TN)
		if err != nil {
			return nil, err
		}
		row, err := missRow(a, env, KB(c.CacheKB), simulate)
		if err != nil {
			return nil, err
		}
		row.Label = fmt.Sprintf("T2.%d", i+1)
		row.Bounds = fmt.Sprintf("(%d,%d,%d,%d)", c.NI, c.NJ, c.NM, c.NN)
		row.Tiles = fmt.Sprintf("(%d,%d,%d,%d)", c.TI, c.TJ, c.TM, c.TN)
		row.CacheBytes = c.CacheKB * 1024
		row.PaperPred, row.PaperSim = c.PaperPred, c.PaperSim
		rows = append(rows, row)
	}
	return rows, nil
}

// RunTable3 evaluates Table 3 (tiled matmul).
func RunTable3(simulate bool) ([]MissRow, error) {
	a, err := MatmulAnalysis()
	if err != nil {
		return nil, err
	}
	var rows []MissRow
	for i, c := range Table3Configs() {
		env, err := kernels.MatmulEnv(c.N, c.TI, c.TJ, c.TK)
		if err != nil {
			return nil, err
		}
		row, err := missRow(a, env, KB(c.CacheKB), simulate)
		if err != nil {
			return nil, err
		}
		row.Label = fmt.Sprintf("T3.%d", i+1)
		row.Bounds = fmt.Sprintf("(%d)", c.N)
		row.Tiles = fmt.Sprintf("(%d,%d,%d)", c.TI, c.TJ, c.TK)
		row.CacheBytes = c.CacheKB * 1024
		row.PaperPred, row.PaperSim = c.PaperPred, c.PaperSim
		rows = append(rows, row)
	}
	return rows, nil
}

func missRow(a *core.Analysis, env expr.Env, cacheElems int64, simulate bool) (MissRow, error) {
	row := MissRow{Simulated: -1}
	pred, err := a.PredictTotalFrameConfig(a.SymTab().FrameOf(env), core.CacheConfig{CapacityElems: cacheElems})
	if err != nil {
		return row, err
	}
	row.Predicted = pred
	if simulate {
		p, err := trace.Compile(a.Nest, env)
		if err != nil {
			return row, err
		}
		sim := cachesim.NewStackSim(p.Size, len(p.Sites), []int64{cacheElems})
		p.RunBlocks(trace.DefaultBlockSize, sim.AccessBlock)
		m, err := sim.Results().MissesFor(cacheElems)
		if err != nil {
			return row, err
		}
		row.Simulated = m
	}
	return row, nil
}

// Table4Row is one row of Table 4: best tile size at a bound.
type Table4Row struct {
	N           int64
	KnownBest   map[string]int64
	KnownMisses int64
}

// Table4Result holds the unknown-bounds pick and the per-bound rows.
type Table4Result struct {
	UnknownBest map[string]int64
	Rows        []Table4Row
}

// RunTable4 reproduces Table 4: tile selection for the two-index transform
// with a 64 KB cache, with known bounds N ∈ bounds and with unknown bounds
// (scored on bound-free stack distances with a large surrogate).
func RunTable4(bounds []int64) (*Table4Result, error) {
	return RunTable4Parallel(bounds, 1)
}

// RunTable4Parallel is RunTable4 with the searches spread over the given
// number of evaluation workers (see tilesearch.Options.Parallelism). The
// result is identical at every parallelism level.
func RunTable4Parallel(bounds []int64, parallelism int) (*Table4Result, error) {
	return RunTable4Observed(bounds, parallelism, nil)
}

// RunTable4Observed is RunTable4Parallel with observability: every search
// of the sweep records into m (nil disables, making this exactly
// RunTable4Parallel). The analysis is built fresh when m is non-nil so the
// analyze.* stage timers describe this run.
func RunTable4Observed(bounds []int64, parallelism int, m *obs.Metrics) (*Table4Result, error) {
	var a *core.Analysis
	var err error
	if m != nil {
		a, err = AnalyzedKernel("twoindex", m)
	} else {
		a, err = TwoIndexAnalysis()
	}
	if err != nil {
		return nil, err
	}
	cache := KB(64)
	dims := func(max int64) []tilesearch.Dim {
		return []tilesearch.Dim{{Symbol: "TI", Max: max}, {Symbol: "TJ", Max: max},
			{Symbol: "TM", Max: max}, {Symbol: "TN", Max: max}}
	}
	surrogate := int64(1 << 12)
	unk, err := tilesearch.Search(a, tilesearch.Options{
		Dims:       dims(512),
		CacheElems: cache,
		BaseEnv: expr.Env{"NI": surrogate, "NJ": surrogate,
			"NM": surrogate, "NN": surrogate},
		UnknownBounds: map[string]bool{"NI": true, "NJ": true, "NM": true, "NN": true},
		DivisorOf:     surrogate,
		Parallelism:   parallelism,
		Obs:           m,
	})
	if err != nil {
		return nil, err
	}
	res := &Table4Result{UnknownBest: unk.Best.Tiles}
	for _, n := range bounds {
		max := n
		if max > 512 {
			max = 512
		}
		known, err := tilesearch.Search(a, tilesearch.Options{
			Dims:        dims(max),
			CacheElems:  cache,
			BaseEnv:     expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n},
			DivisorOf:   n,
			Parallelism: parallelism,
			Obs:         m,
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table4Row{
			N:           n,
			KnownBest:   known.Best.Tiles,
			KnownMisses: known.Best.Misses,
		})
	}
	return res, nil
}

// FigurePoint is one (tile choice, P) cell of Figures 10 and 11.
type FigurePoint struct {
	Label       string
	Procs       int64
	SecondsInf  float64
	SecondsBus  float64
	PerProcMiss int64
}

// RunFigure reproduces Figure 10 (n = 1024) or Figure 11 (n = 2048): the
// simulated parallel execution time of the two-index transform for
// equi-sized tiles {32, 64, 128, 256} and the model-predicted tile
// (64, 16, 16, 128), across processor counts {1, 2, 4, 8}.
func RunFigure(n int64) ([]FigurePoint, error) {
	a, err := TwoIndexAnalysis()
	if err != nil {
		return nil, err
	}
	model := smp.DefaultCostModel()
	cfg := smp.Config{SplitSymbol: "NN", CacheElems: KB(64), Model: model}
	choices := []smp.TileChoice{
		{Label: "equi-32", Tiles: map[string]int64{"TI": 32, "TJ": 32, "TM": 32, "TN": 32}},
		{Label: "equi-64", Tiles: map[string]int64{"TI": 64, "TJ": 64, "TM": 64, "TN": 64}},
		{Label: "equi-128", Tiles: map[string]int64{"TI": 128, "TJ": 128, "TM": 128, "TN": 128}},
		{Label: "equi-256", Tiles: map[string]int64{"TI": 256, "TJ": 256, "TM": 256, "TN": 256}},
		// The tile our model's search selects (§6). The paper reports
		// (64,16,16,128); under exact fully-associative simulation our
		// (64,16,16,64) incurs strictly fewer misses — see EXPERIMENTS.md.
		{Label: "predicted-64x16x16x64", Tiles: map[string]int64{"TI": 64, "TJ": 16, "TM": 16, "TN": 64}},
		{Label: "paper-64x16x16x128", Tiles: map[string]int64{"TI": 64, "TJ": 16, "TM": 16, "TN": 128}},
	}
	base := expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n}
	pts, err := smp.Sweep(a, base, cfg, []int64{1, 2, 4, 8}, choices)
	if err != nil {
		return nil, err
	}
	var out []FigurePoint
	for _, p := range pts {
		out = append(out, FigurePoint{
			Label:       p.Choice.Label,
			Procs:       p.Pred.Procs,
			SecondsInf:  p.Pred.SecondsInfinite(model),
			SecondsBus:  p.Pred.SecondsBus(model),
			PerProcMiss: p.Pred.PerProcMisses,
		})
	}
	return out, nil
}

// RunFigureSimulated is the exact-simulation counterpart of RunFigure at a
// reduced scale: per-processor misses come from the trace simulator instead
// of the analytical model. It exists to verify that the figure's orderings
// (which tile wins at each P) are properties of the program, not artifacts
// of the model.
func RunFigureSimulated(n int64, procs []int64) ([]FigurePoint, error) {
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		return nil, err
	}
	model := smp.DefaultCostModel()
	cfg := smp.Config{SplitSymbol: "NN", CacheElems: KB(64), Model: model}
	choices := []smp.TileChoice{
		{Label: "equi-32", Tiles: map[string]int64{"TI": 32, "TJ": 32, "TM": 32, "TN": 32}},
		{Label: "equi-64", Tiles: map[string]int64{"TI": 64, "TJ": 64, "TM": 64, "TN": 64}},
		{Label: "predicted-64x16x16x64", Tiles: map[string]int64{"TI": 64, "TJ": 16, "TM": 16, "TN": 64}},
	}
	var out []FigurePoint
	for _, ch := range choices {
		env := expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n}
		for k, v := range ch.Tiles {
			env[k] = v
		}
		for _, p := range procs {
			c := cfg
			c.Procs = p
			pred, err := smp.Simulate(nest, env, c)
			if err != nil {
				return nil, err
			}
			out = append(out, FigurePoint{
				Label:       ch.Label,
				Procs:       p,
				SecondsInf:  pred.SecondsInfinite(model),
				SecondsBus:  pred.SecondsBus(model),
				PerProcMiss: pred.PerProcMisses,
			})
		}
	}
	return out, nil
}

// RunFigureSimulatedParallel is RunFigureSimulated with every processor's
// private cache simulated explicitly (smp.SimulateShards) on a worker pool
// of the given parallelism. For the figure's even splits the points equal
// RunFigureSimulated's exactly; m receives the per-shard cachesim counter
// flushes. Points whose n-tile exceeds the per-processor split bound n/P
// are skipped: the tiled kernel has no partial-tile clamping, so such a
// combination would index past the arrays (at the paper's scales, n = 1024
// and 2048, every figure point is valid).
func RunFigureSimulatedParallel(n int64, procs []int64, parallelism int, m *obs.Metrics) ([]FigurePoint, error) {
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		return nil, err
	}
	model := smp.DefaultCostModel()
	cfg := smp.Config{SplitSymbol: "NN", CacheElems: KB(64), Model: model}
	opt := smp.ShardOptions{Parallelism: parallelism, Obs: m}
	choices := []smp.TileChoice{
		{Label: "equi-32", Tiles: map[string]int64{"TI": 32, "TJ": 32, "TM": 32, "TN": 32}},
		{Label: "equi-64", Tiles: map[string]int64{"TI": 64, "TJ": 64, "TM": 64, "TN": 64}},
		{Label: "predicted-64x16x16x64", Tiles: map[string]int64{"TI": 64, "TJ": 16, "TM": 16, "TN": 64}},
	}
	var out []FigurePoint
	for _, ch := range choices {
		env := expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n}
		for k, v := range ch.Tiles {
			env[k] = v
		}
		for _, p := range procs {
			if ch.Tiles["TN"] > n/p {
				continue
			}
			c := cfg
			c.Procs = p
			pred, err := smp.SimulateShards(nest, env, c, opt)
			if err != nil {
				return nil, err
			}
			out = append(out, FigurePoint{
				Label:       ch.Label,
				Procs:       p,
				SecondsInf:  pred.SecondsInfinite(model),
				SecondsBus:  pred.SecondsBus(model),
				PerProcMiss: pred.PerProcMisses,
			})
		}
	}
	return out, nil
}

// FormatMissRows renders miss rows as an aligned text table.
func FormatMissRows(title string, rows []MissRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-6s %-22s %-20s %-8s %14s %14s %14s %14s %8s\n",
		"row", "bounds", "tiles", "cache", "predicted", "simulated", "paper-pred", "paper-sim", "rel-err")
	for _, r := range rows {
		simStr := "-"
		relStr := "-"
		if r.Simulated >= 0 {
			simStr = fmt.Sprint(r.Simulated)
			relStr = fmt.Sprintf("%.2f%%", 100*r.RelErr())
		}
		fmt.Fprintf(&b, "%-6s %-22s %-20s %-8s %14d %14s %14d %14d %8s\n",
			r.Label, r.Bounds, r.Tiles, fmt.Sprintf("%dKB", r.CacheBytes/1024),
			r.Predicted, simStr, r.PaperPred, r.PaperSim, relStr)
	}
	return b.String()
}

// FormatFigure renders figure points as series.
func FormatFigure(title string, pts []FigurePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-26s %5s %16s %16s %16s\n", "tiles", "P", "time-inf(s)", "time-bus(s)", "perproc-misses")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-26s %5d %16.3f %16.3f %16d\n",
			p.Label, p.Procs, p.SecondsInf, p.SecondsBus, p.PerProcMiss)
	}
	return b.String()
}
