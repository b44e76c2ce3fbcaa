package core

import (
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/obs"
)

func analyzedMatmulObs(t *testing.T, m *obs.Metrics) *Analysis {
	t.Helper()
	nest, err := kernels.TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Obs = m
	a, err := AnalyzeWithOptions(nest, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAnalyzeStageTimings ties the analysis-stage timers to behavior: every
// stage is non-negative, the disjoint stages sum to at most the total, and
// the stage counters equal the analysis' actual site/component counts.
func TestAnalyzeStageTimings(t *testing.T) {
	m := obs.New()
	a := analyzedMatmulObs(t, m)

	timers := m.Timers()
	for _, name := range []string{"analyze.class", "analyze.partition", "analyze.span", "analyze.total"} {
		ts, ok := timers[name]
		if !ok {
			t.Fatalf("timer %s not recorded (have %v)", name, m.Names())
		}
		if ts.Nanos < 0 {
			t.Errorf("timer %s negative: %d ns", name, ts.Nanos)
		}
		if ts.Count <= 0 {
			t.Errorf("timer %s has no observations", name)
		}
	}
	sum := timers["analyze.class"].Nanos + timers["analyze.partition"].Nanos + timers["analyze.span"].Nanos
	if total := timers["analyze.total"].Nanos; sum > total {
		t.Errorf("stage sum %d ns exceeds total %d ns", sum, total)
	}

	counters := m.Counters()
	if got, want := counters["analyze.components"], int64(len(a.Components)); got != want {
		t.Errorf("analyze.components = %d, want %d", got, want)
	}
	if got, want := counters["analyze.sites"], int64(len(a.Nest.Sites())); got != want {
		t.Errorf("analyze.sites = %d, want %d", got, want)
	}
}

// TestAnalyzeNilObsIsFree: the uninstrumented path must record nothing and
// still produce the identical analysis.
func TestAnalyzeNilObsIsFree(t *testing.T) {
	nest, err := kernels.TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	observed := analyzedMatmulObs(t, m)
	if len(plain.Components) != len(observed.Components) {
		t.Fatalf("instrumentation changed the analysis: %d vs %d components",
			len(plain.Components), len(observed.Components))
	}
	for i := range plain.Components {
		if plain.Components[i].String() != observed.Components[i].String() {
			t.Errorf("component %d differs: %s vs %s",
				i, plain.Components[i], observed.Components[i])
		}
	}
}

// TestEvalCacheMetricsInvariant: hits+misses == lookups exactly, misses
// equals the distinct-key computation count, the entry gauge equals the
// number of distinct keys, and no coalesced waits occur sequentially.
func TestEvalCacheMetricsInvariant(t *testing.T) {
	m := obs.New()
	a := analyzedMatmulObs(t, nil)
	ec := NewEvalCacheWithMetrics(a, m)

	envs := []expr.Env{
		{"N": 64, "TI": 8, "TJ": 8, "TK": 8},
		{"N": 64, "TI": 8, "TJ": 8, "TK": 16}, // shares TI/TJ-only components
		{"N": 64, "TI": 8, "TJ": 8, "TK": 8},  // full repeat: all hits
	}
	for _, env := range envs {
		for _, cache := range []int64{256, 512, 1024} {
			if _, err := ec.PredictMissesFrameConfig(a.SymTab().FrameOf(env), CacheConfig{CapacityElems: cache}); err != nil {
				t.Fatal(err)
			}
		}
	}

	c := m.Counters()
	if c["evalcache.lookups"] == 0 {
		t.Fatal("no lookups recorded")
	}
	if c["evalcache.hits"]+c["evalcache.misses"] != c["evalcache.lookups"] {
		t.Errorf("hits %d + misses %d != lookups %d",
			c["evalcache.hits"], c["evalcache.misses"], c["evalcache.lookups"])
	}
	st := ec.Stats()
	if c["evalcache.lookups"] != st.Lookups {
		t.Errorf("lookups counter %d != Stats().Lookups %d", c["evalcache.lookups"], st.Lookups)
	}
	if c["evalcache.misses"] != st.Computed {
		t.Errorf("misses counter %d != Stats().Computed %d", c["evalcache.misses"], st.Computed)
	}
	if c["evalcache.coalesced"] != 0 {
		t.Errorf("sequential use recorded %d coalesced waits", c["evalcache.coalesced"])
	}
	if got := m.Gauge("evalcache.entries").Load(); got != st.Computed {
		t.Errorf("entries gauge %d != distinct computations %d", got, st.Computed)
	}
	// The repeated environment and capacity sweep must actually hit.
	if c["evalcache.hits"] == 0 {
		t.Error("workload designed for reuse recorded zero hits")
	}
}

// TestEvalCacheMetricsConcurrent: under concurrent lookups the accounting
// identity and the determinism of hits/misses (guaranteed by per-entry
// coalescing) must hold.
func TestEvalCacheMetricsConcurrent(t *testing.T) {
	a := analyzedMatmulObs(t, nil)
	run := func(workers int) (hits, misses, lookups, entries int64) {
		m := obs.New()
		ec := NewEvalCacheWithMetrics(a, m)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for rep := 0; rep < 8; rep++ {
					for _, tk := range []int64{4, 8, 16, 32} {
						env := expr.Env{"N": 64, "TI": 8, "TJ": 8, "TK": tk}
						if _, err := ec.PredictMissesFrameConfig(a.SymTab().FrameOf(env), CacheConfig{CapacityElems: 512}); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		c := m.Counters()
		return c["evalcache.hits"], c["evalcache.misses"], c["evalcache.lookups"],
			m.Gauge("evalcache.entries").Load()
	}
	h1, m1, l1, e1 := run(1)
	h8, m8, l8, e8 := run(8)
	if h1+m1 != l1 || h8+m8 != l8 {
		t.Errorf("accounting identity violated: seq %d+%d vs %d, par %d+%d vs %d",
			h1, m1, l1, h8, m8, l8)
	}
	// The query multiset is identical, so every deterministic counter must
	// match across parallelism (8 workers issue 8x the lookups of 1).
	if l8 != 8*l1 {
		t.Errorf("lookups: par %d != 8 * seq %d", l8, l1)
	}
	if m8 != m1 || e8 != e1 {
		t.Errorf("distinct computations must not depend on concurrency: misses %d vs %d, entries %d vs %d",
			m1, m8, e1, e8)
	}
}
