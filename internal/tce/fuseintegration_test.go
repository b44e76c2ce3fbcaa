package tce

import (
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/trace"
)

// TestLoopFusionOnGeneratedCode drives Fig. 1 end to end mechanically:
// generate the unfused two-index program, fuse adjacent loops, and check
// that the fused program has fewer loops, computes the same result, and is
// still analyzable by the cache model with fewer misses at small caches
// (fusion moves the producer next to the consumer).
func TestLoopFusionOnGeneratedCode(t *testing.T) {
	c, r := TwoIndexTransform()
	tree, err := OpMin(c, r, expr.Env{"N": 100, "V": 100})
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := GenLoopNest("two-index-unfused", tree.Sequence(), r)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := loopir.FuseAdjacent(unfused)
	if err != nil {
		t.Fatal(err)
	}
	if fused.LoopCount() >= unfused.LoopCount() {
		t.Fatalf("fusion did not reduce loops: %d vs %d", fused.LoopCount(), unfused.LoopCount())
	}
	if len(fused.Stmts()) != len(unfused.Stmts()) {
		t.Fatalf("statements lost: %d vs %d", len(fused.Stmts()), len(unfused.Stmts()))
	}

	// Numeric equivalence via the executor.
	const n, v = 10, 6
	env := expr.Env{"N": n, "V": v}
	runOne := func(nest *loopir.Nest) []float64 {
		t.Helper()
		ex, err := trace.NewExecutor(nest, env)
		if err != nil {
			t.Fatal(err)
		}
		a := kernels.NewMatrix(n, n)
		c1 := kernels.NewMatrix(v, n)
		c2 := kernels.NewMatrix(v, n)
		a.FillSequential(0.1)
		c1.FillSequential(0.2)
		c2.FillSequential(0.3)
		for name, m := range map[string]*kernels.Matrix{"A": a, "C1": c1, "C2": c2} {
			if err := ex.SetArray(name, m.Data); err != nil {
				t.Fatal(err)
			}
		}
		ex.Run()
		out, err := ex.Array("B")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	bu := runOne(unfused)
	bf := runOne(fused)
	for i := range bu {
		d := bu[i] - bf[i]
		if d < 0 {
			d = -d
		}
		if d > 1e-9 {
			t.Fatalf("B[%d]: unfused %g fused %g", i, bu[i], bf[i])
		}
	}

	// Both analyzable; fusion must not increase misses at a small cache
	// (the intermediate's producer-consumer distance shrinks).
	au, err := core.Analyze(unfused)
	if err != nil {
		t.Fatal(err)
	}
	af, err := core.Analyze(fused)
	if err != nil {
		t.Fatal(err)
	}
	const cache = 64
	mu, err := au.PredictTotalFrameConfig(au.SymTab().FrameOf(env), core.CacheConfig{CapacityElems: cache})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := af.PredictTotalFrameConfig(af.SymTab().FrameOf(env), core.CacheConfig{CapacityElems: cache})
	if err != nil {
		t.Fatal(err)
	}
	if mf > mu {
		t.Errorf("fusion increased predicted misses: %d -> %d", mu, mf)
	}
}
