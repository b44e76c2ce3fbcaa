package core

import (
	"strings"
	"testing"

	"repro/internal/expr"
)

func TestCacheConfigValidate(t *testing.T) {
	valid := []CacheConfig{
		{CapacityElems: 64},                             // fully associative, element lines
		{CapacityElems: 64, LineElems: 8},               // fully associative, 8-elem lines
		{CapacityElems: 64, Ways: 1},                    // direct-mapped
		{CapacityElems: 64, Ways: 4, LineElems: 8},      // 2 sets
		{CapacityElems: 64, Ways: 8, LineElems: 8},      // 1 set: degenerate but legal
		{CapacityElems: 1 << 20, Ways: 8, LineElems: 8}, // large
	}
	for _, cfg := range valid {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	invalid := []struct {
		cfg  CacheConfig
		frag string
	}{
		{CacheConfig{CapacityElems: 0, Ways: 1}, "invalid cache geometry"},
		{CacheConfig{CapacityElems: -64, Ways: 1}, "invalid cache geometry"},
		{CacheConfig{CapacityElems: 64, Ways: -1}, "invalid cache geometry"},
		{CacheConfig{CapacityElems: 64, LineElems: -8}, "invalid cache geometry"},
		{CacheConfig{CapacityElems: 64, LineElems: 7}, "must divide capacity"},
		{CacheConfig{CapacityElems: 64, Ways: 3}, "not divisible"},
		{CacheConfig{CapacityElems: 64, Ways: 128}, "not divisible"},
		{CacheConfig{CapacityElems: 64, Ways: 16, LineElems: 8}, "not divisible"},
	}
	for _, tc := range invalid {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("Validate(%+v) = %v, want error containing %q", tc.cfg, err, tc.frag)
		}
	}
}

func TestCacheConfigSets(t *testing.T) {
	for _, tc := range []struct {
		cfg  CacheConfig
		sets int64
		fa   bool
	}{
		{CacheConfig{CapacityElems: 64}, 1, true},
		{CacheConfig{CapacityElems: 64, Ways: 1}, 64, false},
		{CacheConfig{CapacityElems: 64, Ways: 4, LineElems: 4}, 4, false},
		{CacheConfig{CapacityElems: 64, Ways: 64}, 1, true},
		{CacheConfig{CapacityElems: 64, Ways: 8, LineElems: 8}, 1, true},
	} {
		if got := tc.cfg.Sets(); got != tc.sets {
			t.Errorf("Sets(%+v) = %d, want %d", tc.cfg, got, tc.sets)
		}
		if got := tc.cfg.FullyAssociative(); got != tc.fa {
			t.Errorf("FullyAssociative(%+v) = %v, want %v", tc.cfg, got, tc.fa)
		}
	}
}

// A fully-associative CacheConfig — whether by the zero-Ways default or by a
// geometry that degenerates to one set — must reproduce the plain capacity
// prediction byte for byte, on the compiled path and in the oracle.
func TestPredictMissesConfigFullyAssociativeIdentity(t *testing.T) {
	a := cachedMatmul(t)
	f := a.NewFrame()
	for _, n := range []int64{32, 64, 100} {
		env := expr.Env{"N": n, "TI": 8, "TJ": 8, "TK": 8}
		f.Reset()
		f.Bind(env)
		for _, cache := range []int64{64, 512, 4096} {
			want, err := a.PredictMissesFrameConfig(f, CacheConfig{CapacityElems: cache})
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []CacheConfig{
				{CapacityElems: cache, LineElems: 8},                  // zero ways, explicit line
				{CapacityElems: cache, Ways: cache},                   // one set
				{CapacityElems: cache, Ways: cache / 8, LineElems: 8}, // one set, lines
			} {
				got, err := a.TreePredict(env, cfg)
				if err != nil {
					t.Fatalf("config %+v: %v", cfg, err)
				}
				diffReports(t, got, want)
				gotF, err := a.PredictMissesFrameConfig(f, cfg)
				if err != nil {
					t.Fatalf("frame config %+v: %v", cfg, err)
				}
				diffReports(t, gotF, want)
			}
		}
	}
}

// The EvalCache path must be a pure memoization of the Analysis path, both
// must match the tree-walking oracle, and the total-only variants must agree
// with the full report.
func TestPredictMissesConfigEvalCacheParity(t *testing.T) {
	a := cachedMatmul(t)
	ec := NewEvalCache(a)
	f := a.NewFrame()
	for _, n := range []int64{32, 64} {
		env := expr.Env{"N": n, "TI": 8, "TJ": 8, "TK": 8}
		f.Reset()
		f.Bind(env)
		for _, cfg := range []CacheConfig{
			{CapacityElems: 512, Ways: 1},
			{CapacityElems: 512, Ways: 4},
			{CapacityElems: 4096, Ways: 2, LineElems: 8},
			{CapacityElems: 4096}, // fully associative through the cache too
		} {
			want, err := a.TreePredict(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := a.PredictMissesFrameConfig(f, cfg)
			if err != nil {
				t.Fatal(err)
			}
			diffReports(t, direct, want)
			got, err := ec.PredictMissesFrameConfig(f, cfg)
			if err != nil {
				t.Fatal(err)
			}
			diffReports(t, got, want)
			for name, total := range map[string]func(*expr.Frame, CacheConfig) (int64, error){
				"Analysis":  a.PredictTotalFrameConfig,
				"EvalCache": ec.PredictTotalFrameConfig,
			} {
				got, err := total(f, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != want.Total {
					t.Errorf("cfg %+v: %s.PredictTotalFrameConfig = %d, want %d", cfg, name, got, want.Total)
				}
			}
		}
	}
}

// When the combined array footprint fits one lap of the set space no two
// addresses can collide, so the conflict-aware prediction must degenerate to
// the fully-associative one even under a set-associative geometry.
func TestPredictMissesConfigSmallFootprintMatchesFA(t *testing.T) {
	a := cachedMatmul(t)
	env := expr.Env{"N": 16, "TI": 4, "TJ": 4, "TK": 4} // footprint 3·256 = 768
	f := a.SymTab().FrameOf(env)
	for _, cfg := range []CacheConfig{
		{CapacityElems: 2048, Ways: 2}, // S·L = 1024 ≥ 768
		{CapacityElems: 4096, Ways: 4}, // S·L = 1024 ≥ 768
		{CapacityElems: 8192, Ways: 1}, // S·L = 8192 ≥ 768
	} {
		want, err := a.PredictMissesFrameConfig(f, CacheConfig{CapacityElems: cfg.CapacityElems})
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.PredictMissesFrameConfig(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		diffReports(t, got, want)
	}
}

// A power-of-two leading dimension makes the matmul column walk resonate:
// the stride-N lattice reaches only S/gcd(S, N) sets, so a direct-mapped
// geometry must predict strictly more misses than the fully-associative
// model at a capacity that comfortably holds the fully-associative span.
func TestPredictMissesConfigResonance(t *testing.T) {
	a := cachedMatmul(t)
	f := a.SymTab().FrameOf(expr.Env{"N": 64, "TI": 8, "TJ": 8, "TK": 8})
	fa, err := a.PredictTotalFrameConfig(f, CacheConfig{CapacityElems: 1024})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := a.PredictTotalFrameConfig(f, CacheConfig{CapacityElems: 1024, Ways: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dm <= fa {
		t.Errorf("direct-mapped prediction %d not above fully-associative %d at resonant stride", dm, fa)
	}
}

// Every prediction call must reject a geometry Validate rejects, with
// Validate's message: the report and the total forms, on the Analysis and
// through the EvalCache. Only a fully-associative one-element-line config
// is exempt (it accepts any capacity).
func TestPredictMissesConfigInvalidGeometry(t *testing.T) {
	a := cachedMatmul(t)
	f := a.SymTab().FrameOf(expr.Env{"N": 64, "TI": 8, "TJ": 8, "TK": 8})
	ec := NewEvalCache(a)
	calls := map[string]func(CacheConfig) error{
		"Analysis report": func(cfg CacheConfig) error {
			_, err := a.PredictMissesFrameConfig(f, cfg)
			return err
		},
		"Analysis total": func(cfg CacheConfig) error {
			_, err := a.PredictTotalFrameConfig(f, cfg)
			return err
		},
		"EvalCache report": func(cfg CacheConfig) error {
			_, err := ec.PredictMissesFrameConfig(f, cfg)
			return err
		},
		"EvalCache total": func(cfg CacheConfig) error {
			_, err := ec.PredictTotalFrameConfig(f, cfg)
			return err
		},
	}
	for _, cfg := range []CacheConfig{
		{CapacityElems: 512, Ways: -1},
		{CapacityElems: 0, Ways: 2},
		{CapacityElems: 512, Ways: 3},
		{CapacityElems: 512, Ways: 2, LineElems: 3},
		{CapacityElems: 64, Ways: 3},
		{CapacityElems: 512, LineElems: 3},
	} {
		verr := cfg.Validate()
		if verr == nil {
			t.Fatalf("config %+v: Validate accepts it; the table needs invalid geometries", cfg)
		}
		for name, call := range calls {
			err := call(cfg)
			if err == nil || !strings.Contains(err.Error(), verr.Error()) {
				t.Errorf("%s %+v: err = %v, want %q", name, cfg, err, verr)
			}
		}
	}
	// The exempt config: any capacity, zero or below included.
	for _, c := range []int64{0, -1} {
		for name, call := range calls {
			if err := call(CacheConfig{CapacityElems: c}); err != nil {
				t.Errorf("%s capacity %d: %v", name, c, err)
			}
		}
	}
}
