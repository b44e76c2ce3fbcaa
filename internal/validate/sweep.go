package validate

import (
	"runtime"
	"sync"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/obs"
)

// Case is one independent nest in a differential sweep: an analysis and the
// concrete bounds to evaluate it under.
type Case struct {
	Name     string
	Analysis *core.Analysis
	Env      expr.Env
}

// SweepOptions configures RunSweep.
type SweepOptions struct {
	// Parallelism bounds the worker pool: n > 1 uses n workers, 0 or 1 runs
	// sequentially, negative uses GOMAXPROCS.
	Parallelism int
	// Obs receives per-case "cachesim.*" counter flushes and
	// "simulate.total" timings. Instruments are atomic, so shards aggregate
	// exactly: counter totals are independent of Parallelism.
	Obs *obs.Metrics
	// Engine selects the simulation engine the predictions are compared
	// against: exact (default) walks the whole trace through StackSim,
	// sampled estimates from a SHARDS-style address sample, and analytic
	// evaluates the closed-form model itself (so Predicted == Simulated by
	// construction — useful to exercise the analytic plumbing under the
	// sweep's parallelism and comparison shape).
	Engine cachesim.Engine
	// BlockSize overrides the trace block size for the batched pipeline;
	// 0 means trace.DefaultBlockSize.
	BlockSize int
	// SampleLog2Rate and SampleSeed configure the sampled engine: the
	// sampling rate is 2^-SampleLog2Rate (0 falls back to
	// cachesim.DefaultLog2Rate for the nest's address space) and seed 0
	// selects cachesim.DefaultSampleSeed.
	SampleLog2Rate int
	SampleSeed     uint64
}

// RunSweep cross-checks every case at every watched capacity, distributing
// independent cases over a bounded worker pool. out[i] holds case i's
// comparisons in input order regardless of scheduling; the returned error,
// if any, is the one the lowest-indexed case produced, matching a
// sequential sweep. Each case simulates into its own StackSim, so the only
// shared mutable state is the (atomic) obs registry — results are
// byte-identical at every parallelism level.
func RunSweep(cases []Case, watches []int64, opt SweepOptions) ([][]Comparison, error) {
	out := make([][]Comparison, len(cases))
	workers := opt.Parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 0 {
		workers = 1
	}
	if workers <= 1 || len(cases) <= 1 {
		for i, c := range cases {
			cmps, err := runOne(c.Analysis, c.Env, watches, opt.Obs, opt)
			if err != nil {
				return nil, err
			}
			out[i] = cmps
		}
		return out, nil
	}

	errs := make([]error, len(cases))
	var next int
	var nextMu sync.Mutex
	take := func() int {
		nextMu.Lock()
		i := next
		next++
		nextMu.Unlock()
		return i
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := take()
				if i >= len(cases) {
					return
				}
				out[i], errs[i] = runOne(cases[i].Analysis, cases[i].Env, watches, opt.Obs, opt)
			}
		}()
	}
	wg.Wait()
	// Indices are handed out in increasing order and every started case runs
	// to completion, so the earliest failure is always observed.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
