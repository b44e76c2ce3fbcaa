package nestgen

import (
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/loopir"
	"repro/internal/trace"
)

func TestGeneratedNestsAreValid(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, imperfect := range []bool{false, true} {
		for i := 0; i < 50; i++ {
			nest, env, err := Generate(r, i, Config{Imperfect: imperfect})
			if err != nil {
				t.Fatalf("imperfect=%v id=%d: %v", imperfect, i, err)
			}
			if err := nest.ValidateEnv(env); err != nil {
				t.Fatalf("env invalid: %v", err)
			}
			if _, err := core.Analyze(nest); err != nil {
				t.Fatalf("not analyzable: %v\n%s", err, nest)
			}
			p, err := trace.Compile(nest, env)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.CheckBounds(); err != nil {
				t.Fatalf("bounds: %v\n%s", err, nest)
			}
		}
	}
}

// TestGeneratedNestsModelAccuracy is the package's raison d'être: on a
// broad random population, the model's compulsory misses are exact and the
// total misses stay within boundary slack of exact simulation.
func TestGeneratedNestsModelAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, imperfect := range []bool{false, true} {
		for i := 0; i < 60; i++ {
			nest, env, err := Generate(r, i, Config{Imperfect: imperfect})
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.Analyze(nest)
			if err != nil {
				t.Fatal(err)
			}
			p, err := trace.Compile(nest, env)
			if err != nil {
				t.Fatal(err)
			}
			watches := []int64{1, 3, 9, 27, 1 << 20}
			sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
			p.Run(sim.Access)
			res := sim.Results()

			predInf, err := a.PredictTotalFrameConfig(a.SymTab().FrameOf(env), core.CacheConfig{CapacityElems: 1 << 40})
			if err != nil {
				t.Fatal(err)
			}
			if predInf != res.Distinct {
				t.Errorf("imperfect=%v id=%d: compulsory %d vs %d\n%s\n%s",
					imperfect, i, predInf, res.Distinct, nest, a.Table())
				continue
			}
			slack := res.Accesses/3 + 30
			for wi, c := range watches {
				pred, err := a.PredictTotalFrameConfig(a.SymTab().FrameOf(env), core.CacheConfig{CapacityElems: c})
				if err != nil {
					t.Fatal(err)
				}
				d := pred - res.Misses[wi]
				if d < 0 {
					d = -d
				}
				if d > slack {
					t.Errorf("imperfect=%v id=%d cap=%d: predicted %d vs %d (slack %d)\nenv=%v\n%s",
						imperfect, i, c, pred, res.Misses[wi], slack, env, nest)
				}
			}
		}
	}
}

// TestGeneratedNestsParseRoundTrip fuzzes the textual format: every
// generated nest must survive Unparse → Parse with identical structure.
func TestGeneratedNestsParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, imperfect := range []bool{false, true} {
		for i := 0; i < 60; i++ {
			nest, _, err := Generate(r, i, Config{Imperfect: imperfect})
			if err != nil {
				t.Fatal(err)
			}
			text := loopir.Unparse(nest)
			back, err := loopir.Parse(text)
			if err != nil {
				t.Fatalf("reparse failed for nest %d: %v\n%s", i, err, text)
			}
			// Compare via Unparse (which canonicalizes the nest name).
			if got := loopir.Unparse(back); got != text {
				t.Fatalf("round trip changed nest %d:\n--- original\n%s\n--- reparsed\n%s", i, text, got)
			}
		}
	}
}

// TestGeneratedNestsFuseSafely: fusing any generated nest preserves the
// per-site access counts and stays analyzable.
func TestGeneratedNestsFuseSafely(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		nest, env, err := Generate(r, i, Config{Imperfect: true})
		if err != nil {
			t.Fatal(err)
		}
		fused, err := loopir.FuseAdjacent(nest)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Analyze(fused); err != nil {
			t.Fatalf("fused nest %d not analyzable: %v\n%s", i, err, fused)
		}
		pOrig, err := trace.Compile(nest, env)
		if err != nil {
			t.Fatal(err)
		}
		pFused, err := trace.Compile(fused, env)
		if err != nil {
			t.Fatal(err)
		}
		nOrig, _ := pOrig.Length()
		nFused, _ := pFused.Length()
		if nOrig != nFused {
			t.Fatalf("nest %d: fusion changed access count %d -> %d", i, nOrig, nFused)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxDepth != 4 || c.MaxBranches != 3 || c.MaxArrays != 4 || c.MaxTrip != 6 || c.MinTrip != 2 {
		t.Fatalf("defaults %+v", c)
	}
}
