package main

import (
	"fmt"
	"time"

	"repro/internal/cachesim"
	"repro/internal/cachesim/analytic"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/trace"
	"repro/internal/validate"
)

// matmul is the tiled-matmul workload the sim, assoc and eval layers share:
// the compiled trace for the simulating engines and the analysis the model
// evaluates. n=64 with 8×8×8 tiles is about 786k accesses — enough to
// swamp per-run setup, small enough for CI.
type matmul struct {
	a        *core.Analysis
	env      expr.Env
	prog     *trace.Program
	accesses int64
}

// simWatches are the capacities the sim layer's engines report at.
var simWatches = []int64{experiments.KB(16), experiments.KB(64)}

func newMatmul(n, tile int64) (*matmul, error) {
	nest, env, err := experiments.BuildKernel("matmul", n, []int64{tile, tile, tile})
	if err != nil {
		return nil, err
	}
	a, err := core.Analyze(nest)
	if err != nil {
		return nil, err
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		return nil, err
	}
	total, err := p.Length()
	if err != nil {
		return nil, err
	}
	return &matmul{a: a, env: env, prog: p, accesses: total}, nil
}

// exact plays the trace through the batched pipeline (trace.RunBlocks
// feeding StackSim.AccessBlock).
func (w *matmul) exact() cachesim.Results {
	sim := cachesim.NewStackSim(w.prog.Size, len(w.prog.Sites), simWatches)
	w.prog.RunBlocks(0, sim.AccessBlock)
	return sim.Results()
}

// sampled plays the trace through the SHARDS-style engine at the default
// rate for the address space.
func (w *matmul) sampled() cachesim.Results {
	k := cachesim.DefaultLog2Rate(w.prog.Size)
	sim := cachesim.NewSampledSim(w.prog.Size, len(w.prog.Sites), simWatches, k, 0)
	w.prog.RunBlocks(0, sim.AccessBlock)
	return sim.Results()
}

// analytic evaluates the closed-form model; no trace is generated.
func (w *matmul) analytic() (cachesim.Results, error) {
	res, _, err := analytic.Simulate(w.a, w.env, simWatches)
	return res, err
}

// predict is one model evaluation through the pooled-frame path.
func (w *matmul) predict(cfg core.CacheConfig) (int64, error) {
	f := w.a.GetFrame()
	defer w.a.PutFrame(f)
	f.Bind(w.env)
	return w.a.PredictTotalFrameConfig(f, cfg)
}

// sweepCases is the differential-sweep corpus: the tiled matmul under
// several bound/tile combinations, each an independent simulation for
// validate.RunSweep's worker pool.
func sweepCases() ([]validate.Case, error) {
	a, err := experiments.MatmulAnalysis()
	if err != nil {
		return nil, err
	}
	var cases []validate.Case
	for _, c := range [][2]int64{{48, 8}, {48, 16}, {64, 8}, {64, 16}, {64, 32}, {80, 8}, {80, 16}, {96, 32}} {
		cases = append(cases, validate.Case{
			Name:     "matmul",
			Analysis: a,
			Env:      expr.Env{"N": c[0], "TI": c[1], "TJ": c[1], "TK": c[1]},
		})
	}
	return cases, nil
}

// simRows measures the engines. The gate rows pin the engine asymmetry on
// a problem big enough to matter: the n=512 matmul (~4.0e8 accesses)
// through the exact simulator once against the best of three analytic
// evaluations, whose totals must agree.
func simRows(c *config) ([]Row, error) {
	big, err := newMatmul(512, 64)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ex := big.exact()
	exactNs := time.Since(start).Nanoseconds()
	var an cachesim.Results
	bestNs := int64(-1)
	for i := 0; i < 3; i++ {
		start = time.Now()
		if an, err = big.analytic(); err != nil {
			return nil, err
		}
		if ns := time.Since(start).Nanoseconds(); bestNs < 0 || ns < bestNs {
			bestNs = ns
		}
	}
	var bad float64
	if an.Accesses != ex.Accesses {
		bad++
	}
	if an.Distinct != ex.Distinct {
		bad++
	}
	rows := []Row{
		{Name: "exact-n512", Unit: "ns", Value: float64(exactNs), NsPerOp: exactNs, Iterations: 1},
		{Name: "analytic-n512", Unit: "ns", Value: float64(bestNs), NsPerOp: bestNs, Iterations: 3},
		{Name: "analytic-n512.totals", Unit: failuresUnit, Value: bad},
	}
	if c.smoke {
		return rows, nil
	}

	w, err := newMatmul(64, 8)
	if err != nil {
		return nil, err
	}
	cases, err := sweepCases()
	if err != nil {
		return nil, err
	}
	perAccess := float64(w.accesses)
	for _, m := range []struct {
		name, unit string
		perOp      float64
		op         func() error
	}{
		{"exact", "ns/access", perAccess, func() error { w.exact(); return nil }},
		{"sampled", "ns/access", perAccess, func() error { w.sampled(); return nil }},
		{"analytic", "ns/op", 1, func() error { _, err := w.analytic(); return err }},
		{"sweep-j8", "ms", 1e6, func() error {
			_, err := validate.RunSweep(cases, simWatches, validate.SweepOptions{Parallelism: 8})
			return err
		}},
	} {
		r, err := measure(m.name, m.unit, m.perOp, m.op)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// assocCapacities are the 512-element cache where the n=64 matmul's
// stride-64 lattices resonate, and a 2048-element one where they mostly
// do not.
var assocCapacities = []int64{512, 2048}

// assocRows measures, per associativity, both models' mean relative error
// against the AssocCache ground truth and the cost of one conflict-aware
// prediction at 512 elements, next to the fully-associative prediction.
func assocRows(*config) ([]Row, error) {
	w, err := newMatmul(64, 8)
	if err != nil {
		return nil, err
	}
	fa, err := measure("predict-fa", "ns/prediction", 1, func() error {
		_, err := w.predict(core.CacheConfig{CapacityElems: 512})
		return err
	})
	if err != nil {
		return nil, err
	}
	rows := []Row{fa}
	for _, ways := range []int64{1, 2, 4, 8} {
		cmps, err := validate.RunAssoc(w.a, w.env, assocCapacities, ways, 1)
		if err != nil {
			return nil, err
		}
		var errFA, errConf float64
		for _, cmp := range cmps {
			errFA += cmp.RelErrFA()
			errConf += cmp.RelErrConflict()
		}
		n := float64(len(cmps))
		cfg := core.CacheConfig{CapacityElems: 512, Ways: ways, LineElems: 1}
		pc, err := measure(fmt.Sprintf("w%d.predict_conflict", ways), "ns/prediction", 1, func() error {
			_, err := w.predict(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			Row{Name: fmt.Sprintf("w%d.rel_err_fa", ways), Unit: "ratio", Value: errFA / n},
			Row{Name: fmt.Sprintf("w%d.rel_err_conflict", ways), Unit: "ratio", Value: errConf / n},
			pc)
	}
	return rows, nil
}
