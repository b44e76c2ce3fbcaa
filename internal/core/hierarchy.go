package core

import (
	"fmt"

	"repro/internal/expr"
)

// HierarchyReport is the analytical two-level classification of a nest's
// accesses: hits in a first-level cache, hits in a second-level cache, and
// accesses that reach memory. It is the compile-time counterpart of
// cachesim.Hierarchy and extends the paper's single-level model toward the
// deep memory hierarchies (including out-of-core execution) that §7
// motivates.
type HierarchyReport struct {
	Accesses    int64
	L1Hits      int64
	L2Hits      int64
	MemAccesses int64
}

// AMAT returns the predicted average memory access time under the given
// per-level costs.
func (h *HierarchyReport) AMAT(costL1, costL2, costMem float64) float64 {
	if h.Accesses == 0 {
		return 0
	}
	return (float64(h.L1Hits)*costL1 + float64(h.L2Hits)*costL2 +
		float64(h.MemAccesses)*costMem) / float64(h.Accesses)
}

// PredictHierarchy classifies every access against two cache capacities:
// a component hits in the smallest level whose capacity its stack distance
// does not exceed. Requires capL1 <= capL2.
func (a *Analysis) PredictHierarchy(env expr.Env, capL1, capL2 int64) (*HierarchyReport, error) {
	if capL1 <= 0 || capL2 < capL1 {
		return nil, fmt.Errorf("core: invalid hierarchy capacities %d/%d", capL1, capL2)
	}
	f := a.ca.tab.FrameOf(env)
	rep1, err := a.PredictMissesFrameConfig(f, CacheConfig{CapacityElems: capL1})
	if err != nil {
		return nil, err
	}
	mem, err := a.PredictTotalFrameConfig(f, CacheConfig{CapacityElems: capL2})
	if err != nil {
		return nil, err
	}
	return &HierarchyReport{
		Accesses:    rep1.Accesses,
		L1Hits:      rep1.Accesses - rep1.Total,
		L2Hits:      rep1.Total - mem,
		MemAccesses: mem,
	}, nil
}
