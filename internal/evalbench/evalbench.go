// Package evalbench defines the symbolic-evaluation benchmark workloads
// shared by the committed benchmark suite (evalbench_test.go) and
// cmd/evalbench, which writes the BENCH_eval.json artifact. Keeping the
// workload definitions in one place guarantees the artifact measures
// exactly what the go-test benchmarks measure — the same discipline
// internal/simbench applies to the simulation pipelines.
//
// Two things are measured, one per layer of the compiled symbolic stack:
//
//   - raw expression evaluation: every component expression of the tiled
//     matmul analysis (counts, stack-distance bases and slopes, free
//     ranges), evaluated by tree walking an Env versus running the
//     compiled op-slice programs against a slot frame;
//   - the §6 tile search end to end, scored through per-worker frames.
package evalbench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/tilesearch"
)

// Workload is the expression-evaluation corpus: the component expressions
// of one analysis together with their compiled forms and a bound frame.
type Workload struct {
	Name string
	A    *core.Analysis
	Env  expr.Env

	exprs []*expr.Expr
	progs []*expr.Program
	frame *expr.Frame
}

// Matmul builds the standard workload: every component expression of the
// tiled-matmul analysis at bound n with the given TI/TJ/TK tiles. n=64
// with 8×8×8 tiles is the configuration committed in BENCH_eval.json.
func Matmul(n int64, tiles []int64) (*Workload, error) {
	a, err := experiments.MatmulAnalysis()
	if err != nil {
		return nil, err
	}
	if len(tiles) != 3 {
		return nil, fmt.Errorf("evalbench: want 3 tile sizes, got %d", len(tiles))
	}
	w := &Workload{
		Name: fmt.Sprintf("matmul-n%d", n),
		A:    a,
		Env:  expr.Env{"N": n, "TI": tiles[0], "TJ": tiles[1], "TK": tiles[2]},
	}
	for _, c := range a.Components {
		w.add(c.Count)
		w.add(c.SD.Base)
		if c.SD.Slope != nil {
			w.add(c.SD.Slope)
		}
		if c.FreeRange != nil {
			w.add(c.FreeRange)
		}
	}
	tab := a.SymTab()
	for _, e := range w.exprs {
		w.progs = append(w.progs, expr.Compile(e, tab))
	}
	w.frame = tab.FrameOf(w.Env)
	return w, nil
}

func (w *Workload) add(e *expr.Expr) { w.exprs = append(w.exprs, e) }

// NumExprs is the number of expressions one Eval* pass evaluates.
func (w *Workload) NumExprs() int { return len(w.exprs) }

// EvalTree evaluates every expression by tree walking the Env and returns
// a wrapping checksum of the results (so the compiler cannot discard the
// work and correctness tests can compare the two paths).
func (w *Workload) EvalTree() (int64, error) {
	var sum int64
	for _, e := range w.exprs {
		v, err := e.Eval(w.Env)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// EvalCompiled evaluates every compiled program against the bound frame
// and returns the same checksum as EvalTree.
func (w *Workload) EvalCompiled() (int64, error) {
	var sum int64
	for _, p := range w.progs {
		v, err := p.Eval(w.frame)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// SearchOptions is the end-to-end tile-search configuration: the same
// matmul n=64 search the tilesearch tests and goldens pin.
func SearchOptions(n int64) tilesearch.Options {
	return tilesearch.Options{
		Dims: []tilesearch.Dim{
			{Symbol: "TI", Max: n}, {Symbol: "TJ", Max: n}, {Symbol: "TK", Max: n},
		},
		CacheElems: experiments.KB(16),
		BaseEnv:    expr.Env{"N": n},
		DivisorOf:  n,
	}
}

// RunSearch runs the end-to-end search. Each call builds a fresh evaluator
// and caches, so repeated calls measure the full per-search cost.
func (w *Workload) RunSearch(n int64) (*tilesearch.Result, error) {
	return tilesearch.Search(w.A, SearchOptions(n))
}
