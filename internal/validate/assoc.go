package validate

import (
	"runtime"
	"sync"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/trace"
)

// AssocComparison is the three-way record of the set-associative
// differential harness at one capacity under one geometry: the AssocCache
// ground truth against both the fully-associative model (what the paper
// predicts) and the conflict-aware model (core.PredictMissesFrameConfig).
type AssocComparison struct {
	CacheElems int64
	Ways       int64
	LineElems  int64
	Accesses   int64
	// Simulated is the set-associative LRU simulator's miss count.
	Simulated int64
	// PredictedFA is the fully-associative model's prediction — blind to the
	// set mapping by construction.
	PredictedFA int64
	// PredictedConflict is the associativity-aware prediction.
	PredictedConflict int64
}

// relErr is |predicted − simulated| / simulated with the same zero
// conventions as Comparison.RelErr.
func relErr(predicted, simulated int64) float64 {
	if simulated == 0 {
		if predicted == 0 {
			return 0
		}
		return 1
	}
	d := predicted - simulated
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(simulated)
}

// RelErrFA is the fully-associative model's relative total error.
func (c AssocComparison) RelErrFA() float64 { return relErr(c.PredictedFA, c.Simulated) }

// RelErrConflict is the conflict-aware model's relative total error.
func (c AssocComparison) RelErrConflict() float64 { return relErr(c.PredictedConflict, c.Simulated) }

// RunAssoc cross-checks one nest against the set-associative simulator: the
// trace is generated once through the batched pipeline and fed to one
// AssocCache per watched capacity (the set-associative simulator has no
// single-pass stack-distance trick), then both models predict at every
// capacity. ways and lineElems follow cachesim.NewAssocCache's conventions;
// every capacity must be divisible by ways·lineElems.
func RunAssoc(a *core.Analysis, env expr.Env, capacities []int64, ways, lineElems int64) ([]AssocComparison, error) {
	p, err := trace.Compile(a.Nest, env)
	if err != nil {
		return nil, err
	}
	caches := make([]*cachesim.AssocCache, len(capacities))
	for i, cap := range capacities {
		if caches[i], err = cachesim.NewAssocCache(cap, int(ways), lineElems); err != nil {
			return nil, err
		}
	}
	p.RunBlocks(0, func(_ []int32, addrs []int64) {
		for _, c := range caches {
			c.AccessBlock(addrs)
		}
	})

	f := a.SymTab().FrameOf(env)
	out := make([]AssocComparison, len(capacities))
	for i, cap := range capacities {
		fa, err := a.PredictTotalFrameConfig(f, core.CacheConfig{CapacityElems: cap})
		if err != nil {
			return nil, err
		}
		conf, err := a.PredictTotalFrameConfig(f, core.CacheConfig{
			CapacityElems: cap, Ways: ways, LineElems: lineElems,
		})
		if err != nil {
			return nil, err
		}
		out[i] = AssocComparison{
			CacheElems:        cap,
			Ways:              ways,
			LineElems:         lineElems,
			Accesses:          caches[i].Accesses(),
			Simulated:         caches[i].Misses(),
			PredictedFA:       fa,
			PredictedConflict: conf,
		}
	}
	return out, nil
}

// RunAssocSweep runs RunAssoc over independent cases on the same
// deterministic bounded worker pool as RunSweep: out[i] holds case i's
// comparisons in input order at any parallelism level, and the returned
// error is the lowest-indexed case's, matching a sequential sweep.
func RunAssocSweep(cases []Case, capacities []int64, ways, lineElems int64, parallelism int) ([][]AssocComparison, error) {
	out := make([][]AssocComparison, len(cases))
	workers := parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 0 {
		workers = 1
	}
	if workers <= 1 || len(cases) <= 1 {
		for i, c := range cases {
			cmps, err := RunAssoc(c.Analysis, c.Env, capacities, ways, lineElems)
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
				out[i], errs[i] = RunAssoc(cases[i].Analysis, cases[i].Env, capacities, ways, lineElems)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
