package core

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/kernels"
)

// The compiled frame path must be a byte-identical re-expression of the
// tree-walking oracle: same reports from Analysis.PredictMissesFrameConfig
// and from EvalCache's memoized lookups as from TreePredict, at every
// environment and capacity.
func TestPredictMissesFrameMatchesEnv(t *testing.T) {
	a := cachedMatmul(t)
	f := a.NewFrame()
	for _, n := range []int64{32, 64, 100} {
		for _, tile := range []int64{4, 8, 16} {
			env := expr.Env{"N": n, "TI": tile, "TJ": tile, "TK": tile}
			f.Reset()
			f.Bind(env)
			for _, cache := range []int64{64, 512, 4096} {
				cfg := CacheConfig{CapacityElems: cache}
				want, err := a.TreePredict(env, cfg)
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
	}
}

func TestEvalCacheFrameMatchesEnv(t *testing.T) {
	a := cachedMatmul(t)
	ec := NewEvalCache(a)
	f := a.NewFrame()
	sweep := func() {
		for _, tile := range []int64{4, 8, 12} {
			env := expr.Env{"N": 64, "TI": tile, "TJ": tile, "TK": tile}
			f.Reset()
			f.Bind(env)
			for _, cache := range []int64{128, 1024} {
				cfg := CacheConfig{CapacityElems: cache}
				want, err := a.TreePredict(env, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ec.PredictMissesFrameConfig(f, cfg)
				if err != nil {
					t.Fatal(err)
				}
				diffReports(t, got, want)
			}
		}
	}
	sweep()
	// Replaying the same bindings must be served entirely from the cache
	// and still match the oracle.
	pre := ec.Stats()
	sweep()
	if post := ec.Stats(); post.Computed != pre.Computed {
		t.Fatalf("replay recomputed %d entries already cached", post.Computed-pre.Computed)
	}
}

func diffReports(t *testing.T, got, want *MissReport) {
	t.Helper()
	if got.Total != want.Total || got.Accesses != want.Accesses || got.CacheElems != want.CacheElems {
		t.Fatalf("report header diverges: got %d/%d/%d want %d/%d/%d",
			got.Total, got.Accesses, got.CacheElems, want.Total, want.Accesses, want.CacheElems)
	}
	if len(got.Detail) != len(want.Detail) {
		t.Fatalf("detail length %d vs %d", len(got.Detail), len(want.Detail))
	}
	for i := range want.Detail {
		g, w := got.Detail[i], want.Detail[i]
		if g.Misses != w.Misses || g.Count != w.Count || g.SDMin != w.SDMin || g.SDMax != w.SDMax {
			t.Fatalf("component %d diverges: %+v vs %+v", i, g, w)
		}
	}
	for k, v := range want.BySite {
		if got.BySite[k] != v {
			t.Fatalf("site %s: %d vs %d", k, got.BySite[k], v)
		}
	}
}

// Frame validation must reproduce loopir.ValidateEnv's errors verbatim.
func TestValidateFrameErrorsMatchEnv(t *testing.T) {
	a := cachedMatmul(t)
	cases := []expr.Env{
		{},                                   // everything missing
		{"N": 64},                            // tiles missing
		{"N": 64, "TI": 0, "TJ": 4, "TK": 4}, // non-positive symbol
		{"N": -3, "TI": 4, "TJ": 4, "TK": 4},
		{"N": 64, "TI": 4, "TJ": 4, "TK": 4}, // valid
	}
	for _, env := range cases {
		wantErr := a.Nest.ValidateEnv(env)
		f := a.SymTab().FrameOf(env)
		_, gotErr := a.PredictMissesFrameConfig(f, CacheConfig{CapacityElems: 1024})
		switch {
		case wantErr == nil && gotErr == nil:
		case wantErr == nil || gotErr == nil:
			t.Fatalf("env %v: error occurrence mismatch: env=%v frame=%v", env, wantErr, gotErr)
		case wantErr.Error() != gotErr.Error():
			t.Fatalf("env %v: error text mismatch:\nenv:   %v\nframe: %v", env, wantErr, gotErr)
		}
	}
}

// Re-analyzing the same nest must reproduce the same name→slot mapping:
// the property that keeps packed cache keys and any serialized slot data
// stable across runs.
func TestAnalysisSymTabStableUnderReanalysis(t *testing.T) {
	build := func() []string {
		nest, err := kernels.TiledMatmul()
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(nest)
		if err != nil {
			t.Fatal(err)
		}
		return a.SymTab().Names()
	}
	first := build()
	if len(first) == 0 {
		t.Fatalf("empty symbol table after analysis")
	}
	for trial := 0; trial < 3; trial++ {
		again := build()
		if len(again) != len(first) {
			t.Fatalf("slot count changed across re-analysis: %v vs %v", again, first)
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("slot %d changed across re-analysis: %q vs %q", i, again[i], first[i])
			}
		}
	}
}
