package experiments

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/trace"
)

// AssocPoint records miss counts for one cache organization on the same
// trace — the sensitivity study that bounds how far real set-associative
// caches deviate from the paper's fully-associative model. The paper's
// experiments side-step conflict misses by copying tiles ("which will also
// be the case in fully-associative caches", §7.1); this experiment
// quantifies what that copying buys.
type AssocPoint struct {
	Ways      int // 0 = fully associative
	LineElems int64
	Misses    int64
	Accesses  int64
	// Predicted is the analytic model's miss count for this organization:
	// the paper's fully-associative model on the ways-0 row, the
	// conflict-aware model (core.Analysis.PredictTotalFrameConfig) on every other.
	Predicted int64
}

// RunAssocSensitivity simulates the kernel's trace against a fully
// associative cache and against each of the given associativities, at the
// same capacity and line size, with the matching analytic prediction next
// to each simulated count.
func RunAssocSensitivity(kind string, n int64, tiles []int64, cacheKB int64, ways []int, lineElems int64) ([]AssocPoint, error) {
	nest, env, err := BuildKernel(kind, n, tiles)
	if err != nil {
		return nil, err
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		return nil, err
	}
	capacity := KB(cacheKB)

	full := cachesim.NewStackSim(p.Size, len(p.Sites), []int64{capacity})
	var assoc []*cachesim.AssocCache
	for _, w := range ways {
		c, err := cachesim.NewAssocCache(capacity, w, lineElems)
		if err != nil {
			return nil, fmt.Errorf("ways %d: %w", w, err)
		}
		assoc = append(assoc, c)
	}
	p.RunBlocks(trace.DefaultBlockSize, func(sites []int32, addrs []int64) {
		full.AccessBlock(sites, addrs)
		for _, c := range assoc {
			c.AccessBlock(addrs)
		}
	})
	res := full.Results()
	m, err := res.MissesFor(capacity)
	if err != nil {
		return nil, err
	}
	a, err := core.Analyze(nest)
	if err != nil {
		return nil, err
	}
	f := a.SymTab().FrameOf(env)
	faTotal, err := a.PredictTotalFrameConfig(f, core.CacheConfig{CapacityElems: capacity})
	if err != nil {
		return nil, err
	}
	out := []AssocPoint{{Ways: 0, LineElems: 1, Misses: m, Accesses: res.Accesses, Predicted: faTotal}}
	for i, w := range ways {
		cfg := core.CacheConfig{CapacityElems: capacity, Ways: int64(w), LineElems: lineElems}
		predicted, err := a.PredictTotalFrameConfig(f, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AssocPoint{
			Ways:      w,
			LineElems: lineElems,
			Misses:    assoc[i].Misses(),
			Accesses:  assoc[i].Accesses(),
			Predicted: predicted,
		})
	}
	return out, nil
}
