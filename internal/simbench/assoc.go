package simbench

import (
	"repro/internal/core"
	"repro/internal/validate"
)

// Set-associative benchmark workload: the accuracy of the conflict-aware
// model against the AssocCache ground truth, and the cost of one
// conflict-aware prediction. Shared by the go-test benchmarks
// (assoc_test.go) and cmd/simbench -assoc, which writes BENCH_assoc.json,
// the same way the trace-pipeline workloads are shared.

// AssocCapacities is the capacity set the assoc artifact reports at: the
// 512-element cache where the n=64 matmul's stride-64 lattices resonate,
// and a 16 KB cache where they mostly do not.
func AssocCapacities() []int64 {
	return []int64{512, 2048}
}

// AssocWays is the associativity sweep of the assoc artifact.
func AssocWays() []int64 {
	return []int64{1, 2, 4, 8}
}

// RunAssocAccuracy plays the workload's trace through one AssocCache per
// capacity at the given associativity and pairs each simulated count with
// both models' predictions.
func (w *Workload) RunAssocAccuracy(ways int64) ([]validate.AssocComparison, error) {
	return validate.RunAssoc(w.Analysis, w.Env, AssocCapacities(), ways, 1)
}

// PredictConflict is one conflict-aware model evaluation through the
// pooled-frame fast path: the unit the ns/prediction measurements time.
func (w *Workload) PredictConflict(cfg core.CacheConfig) (int64, error) {
	f := w.Analysis.GetFrame()
	defer w.Analysis.PutFrame(f)
	f.Bind(w.Env)
	return w.Analysis.PredictTotalFrameConfig(f, cfg)
}

// PredictFA is the fully-associative counterpart of PredictConflict: the
// baseline the conflict term's overhead is quoted against.
func (w *Workload) PredictFA(capacity int64) (int64, error) {
	f := w.Analysis.GetFrame()
	defer w.Analysis.PutFrame(f)
	f.Bind(w.Env)
	return w.Analysis.PredictTotalFrameConfig(f, core.CacheConfig{CapacityElems: capacity})
}
