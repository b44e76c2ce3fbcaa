package kernels

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/trace"
)

func TestTiledCCSDBuilds(t *testing.T) {
	nest, err := TiledCCSD()
	if err != nil {
		t.Fatal(err)
	}
	// 4 init loops + 12 tiled loops.
	if got := len(nest.Loops()); got != 16 {
		t.Fatalf("%d loops, want 16", got)
	}
	if got := len(nest.Stmts()); got != 2 {
		t.Fatalf("%d statements, want 2", got)
	}
	env, err := CCSDEnv(8, 4, 2, 4, 2, 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckBounds(); err != nil {
		t.Fatal(err)
	}
	// Trace: init V²O² + compute 3·V⁴O².
	want := int64(8*8*4*4 + 3*8*8*8*8*4*4)
	n, _ := p.Length()
	if n != want {
		t.Fatalf("trace length %d want %d", n, want)
	}
}

func TestCCSDEnvValidation(t *testing.T) {
	if _, err := CCSDEnv(8, 4, 3, 4, 2, 2, 4, 2); err == nil {
		t.Error("non-dividing virtual tile accepted")
	}
	if _, err := CCSDEnv(8, 4, 2, 4, 3, 2, 4, 2); err == nil {
		t.Error("non-dividing occupied tile accepted")
	}
}

// TestCCSDModelVsSimulation validates the model on the 12-deep tiled
// contraction across cache regimes.
func TestCCSDModelVsSimulation(t *testing.T) {
	nest, err := TiledCCSD()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env, err := CCSDEnv(8, 4, 2, 4, 2, 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	watches := []int64{8, 64, 512, 4096, 1 << 30}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.Run(sim.Access)
	res := sim.Results()

	predInf, _ := a.PredictTotalFrameConfig(a.SymTab().FrameOf(env), core.CacheConfig{CapacityElems: 1 << 40})
	if predInf != res.Distinct {
		t.Errorf("compulsory %d vs distinct %d", predInf, res.Distinct)
	}
	for i, c := range watches {
		pred, err := a.PredictTotalFrameConfig(a.SymTab().FrameOf(env), core.CacheConfig{CapacityElems: c})
		if err != nil {
			t.Fatal(err)
		}
		d := pred - res.Misses[i]
		if d < 0 {
			d = -d
		}
		tol := res.Misses[i]/6 + res.Accesses/50 + 100
		if d > tol {
			t.Errorf("cache %d: predicted %d vs simulated %d (tol %d)", c, pred, res.Misses[i], tol)
		}
	}
}

// TestCCSDComponentScale: the 12-deep nest's component inventory stays
// tractable (the model is O(depth) components per reference, not
// exponential).
func TestCCSDComponentScale(t *testing.T) {
	nest, err := TiledCCSD()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	// 4 sites (R-init, W, T2, R-update); each has at most
	// #non-appearing-loops + 1 components (+1 for a cross component).
	if got := len(a.Components); got > 4*14 {
		t.Fatalf("%d components — blow-up", got)
	}
	if got := len(a.Components); got < 8 {
		t.Fatalf("only %d components — partitioning incomplete", got)
	}
}
