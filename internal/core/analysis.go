package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/loopir"
	"repro/internal/obs"
)

// Analysis is the compile-time cache model of a nest: the full component
// inventory of every reference site. It is env-independent; evaluate it
// against concrete loop bounds, tile sizes and cache geometries with
// PredictMissesFrameConfig.
type Analysis struct {
	Nest       *loopir.Nest
	Components []*Component

	sc *spanCoster
	// ca is the compiled layer (compiled.go): every trip, extent and
	// component expression flattened into expr.Programs over one
	// analysis-wide SymTab. Built at the end of AnalyzeWithOptions.
	ca *compiledAnalysis
	// framePool recycles frames over ca.tab for request-scoped evaluation
	// (GetFrame/PutFrame). Long-lived workers should keep their own frame
	// from NewFrame instead; the pool exists for callers whose frame
	// lifetime is one short operation, like one served prediction.
	framePool sync.Pool
}

// Options toggles the model's span-cost refinements, for ablation studies.
// The zero value disables everything; DefaultOptions enables the full
// model, which Analyze uses.
type Options struct {
	// CarrierCorrection enables the boundary-crossing correction for
	// self-reuse spans: subscript dimensions naming the carrier loop take
	// values from two adjacent carrier iterations (staircase/doubling
	// rules). Without it, a span is costed as one carrier-body iteration
	// with the carrier frozen.
	CarrierCorrection bool
	// ComplementRule enables the exact-union rule for the reused array in
	// cross-statement spans: the source suffix and target prefix jointly
	// sweep the array in full. Without it, the two partial boxes are
	// summed, over-counting by up to the array's footprint.
	ComplementRule bool
	// TailToHeadWrap refines self-reuse carried by a loop L when the last
	// access to the array within L's body belongs to a different statement
	// than the target: the span then runs from that statement's suffix in
	// the previous iteration to the target's prefix in the current one
	// (the geometry the paper's Fig. 3 source selection implies), instead
	// of being costed as one complete body iteration.
	TailToHeadWrap bool
	// Obs, when non-nil, receives the analysis-stage instruments: the
	// "analyze.class", "analyze.partition", "analyze.span" and
	// "analyze.total" timers (the first three are disjoint and sum to at
	// most the total) and the "analyze.sites" / "analyze.components"
	// counters. Nil disables instrumentation at no cost.
	Obs *obs.Metrics
}

// DefaultOptions is the full model: all refinements enabled.
func DefaultOptions() Options {
	return Options{CarrierCorrection: true, ComplementRule: true, TailToHeadWrap: true}
}

// Analyze partitions every reference of the nest and computes symbolic
// stack distances with the full model. It rejects programs outside the
// supported class.
func Analyze(nest *loopir.Nest) (*Analysis, error) {
	return AnalyzeWithOptions(nest, DefaultOptions())
}

// AnalyzeWithOptions is Analyze with explicit model refinements, for
// ablation experiments.
//
// With opts.Obs set, the run is decomposed into three disjoint timed
// stages — "analyze.class" (class validation), "analyze.span" (span/stack-
// distance costing inside the span coster) and "analyze.partition" (the
// Fig. 3 partition walk minus the span costing it triggers) — plus the
// enclosing "analyze.total".
func AnalyzeWithOptions(nest *loopir.Nest, opts Options) (*Analysis, error) {
	m := opts.Obs
	total := m.Timer("analyze.total").Start()
	defer total.Stop()

	classSW := m.Timer("analyze.class").Start()
	err := checkClass(nest)
	classSW.Stop()
	if err != nil {
		return nil, err
	}

	a := &Analysis{Nest: nest, sc: newSpanCoster(nest, opts)}
	spanTimer := m.Timer("analyze.span")
	partStart := time.Time{}
	if m != nil {
		partStart = time.Now()
	}
	spanBefore := spanTimer.Stats().Nanos
	for _, site := range nest.Sites() {
		comps, err := a.partition(site)
		if err != nil {
			return nil, err
		}
		a.Components = append(a.Components, comps...)
		m.Counter("analyze.sites").Inc()
		m.Counter("analyze.components").Add(int64(len(comps)))
	}
	if m != nil {
		// The span coster accounts its own time; report the walk without it
		// so the stage timers stay disjoint.
		walk := time.Since(partStart) - time.Duration(spanTimer.Stats().Nanos-spanBefore)
		if walk < 0 {
			walk = 0
		}
		m.Timer("analyze.partition").Observe(walk)
	}
	compileSW := m.Timer("analyze.compile").Start()
	a.ca = compileAnalysis(a)
	compileSW.Stop()
	m.Gauge("expr.programs").Set(a.ca.programCount())
	return a, nil
}

// checkClass validates the paper's class constraints beyond what loopir
// already enforces: at most one reference per array per statement (so "the
// previous access to the same element" is unambiguous at statement
// granularity).
func checkClass(nest *loopir.Nest) error {
	for _, s := range nest.Stmts() {
		seen := map[string]bool{}
		for _, r := range s.Refs {
			if seen[r.Array] {
				return fmt.Errorf("core: statement %s references array %s more than once (outside the supported class)", s.Label, r.Array)
			}
			seen[r.Array] = true
		}
	}
	return nil
}

// ComponentsFor returns the components of one reference site.
func (a *Analysis) ComponentsFor(siteKey string) []*Component {
	var out []*Component
	for _, c := range a.Components {
		if c.Site.Key() == siteKey {
			out = append(out, c)
		}
	}
	return out
}

// ComponentMisses records the evaluation of one component at a concrete
// environment and cache capacity.
type ComponentMisses struct {
	Component *Component
	Count     int64
	SDMin     int64 // -1 means infinite
	SDMax     int64 // -1 means infinite
	Misses    int64
}

// MissReport is the result of PredictMissesFrameConfig.
type MissReport struct {
	CacheElems int64
	Accesses   int64
	Total      int64
	BySite     map[string]int64
	Detail     []ComponentMisses
}

// PredictMissesFrameConfig evaluates the analysis at the frame's loop bounds
// and tile sizes and predicts the misses of an LRU cache with the given
// geometry. A component misses when its stack distance exceeds the
// capacity; components with position-dependent stack distance (§5.2)
// contribute the exact number of positions whose distance exceeds it. A
// set-associative geometry adds the conflict model's self- and
// cross-interference misses (conflict.go). The frame must stem from
// a.SymTab(); callers holding an Env bind it with a.SymTab().FrameOf(env).
func (a *Analysis) PredictMissesFrameConfig(f *expr.Frame, cfg CacheConfig) (*MissReport, error) {
	return a.report(f, cfg, nil)
}

// PredictTotalFrameConfig is PredictMissesFrameConfig reduced to the total,
// without materializing a report.
func (a *Analysis) PredictTotalFrameConfig(f *expr.Frame, cfg CacheConfig) (int64, error) {
	return a.predict(f, cfg, nil, nil)
}

// report runs predict into a fresh MissReport.
func (a *Analysis) report(f *expr.Frame, cfg CacheConfig, ec *EvalCache) (*MissReport, error) {
	rep := &MissReport{
		CacheElems: cfg.CapacityElems,
		BySite:     map[string]int64{},
		Detail:     make([]ComponentMisses, 0, len(a.Components)),
	}
	total, err := a.predict(f, cfg, ec, rep)
	if err != nil {
		return nil, err
	}
	rep.Total = total
	return rep, nil
}

// predict is the one evaluation loop of the model: it evaluates every
// component's count and stack distance at the frame's bindings — memoized
// through ec when it is non-nil, directly through the compiled programs
// otherwise — and classifies them against cfg. When rep is non-nil it also
// receives the per-component detail, the per-site totals and the access
// count; the miss total is returned either way.
func (a *Analysis) predict(f *expr.Frame, cfg CacheConfig, ec *EvalCache, rep *MissReport) (int64, error) {
	if err := cfg.validatePredict(); err != nil {
		return 0, err
	}
	cfg = cfg.norm()
	if err := a.ca.validateFrame(f); err != nil {
		return 0, err
	}
	var ce *conflictEval
	if !cfg.FullyAssociative() {
		ce = a.ca.newConflictEval(f, cfg)
	}
	var total int64
	for i, c := range a.Components {
		var v componentValues
		var err error
		if ec != nil {
			v, err = ec.comps[i].valuesFrame(ec, f)
		} else {
			v, err = a.ca.comps[i].evalComponentValuesFrame(f)
		}
		if err != nil {
			return 0, err
		}
		var cm ComponentMisses
		if ce != nil {
			if cm, err = ce.classify(i, c, v, cfg.CapacityElems); err != nil {
				return 0, err
			}
		} else {
			cm = classifyComponent(c, v, cfg.CapacityElems)
		}
		total += cm.Misses
		if rep != nil {
			rep.Detail = append(rep.Detail, cm)
			rep.BySite[c.Site.Key()] += cm.Misses
			rep.Accesses += cm.Count
		}
	}
	return total, nil
}

// componentValues are the environment-dependent numbers of one component
// evaluation. They are independent of the cache capacity, so an evaluation
// cache can compute them once per binding of the component's symbols and
// classify them against any number of capacities (classifyComponent).
type componentValues struct {
	Count int64
	Inf   bool  // first touch: infinite stack distance
	Const bool  // constant stack distance (SD below)
	SD    int64 // constant stack distance value
	// Variable stack distance: SD(a) = Base + Slope*a for a in [0, Range).
	Base, Slope, Range int64
}

// classifyComponent compares evaluated component values against a cache
// capacity: pure arithmetic, no expression evaluation.
func classifyComponent(c *Component, v componentValues, cache int64) ComponentMisses {
	cm := ComponentMisses{Component: c, Count: v.Count}
	if v.Inf {
		cm.SDMin, cm.SDMax = -1, -1
		cm.Misses = v.Count
		return cm
	}
	if v.Const {
		cm.SDMin, cm.SDMax = v.SD, v.SD
		if v.SD > cache {
			cm.Misses = v.Count
		}
		return cm
	}
	base, slope, rng := v.Base, v.Slope, v.Range
	lo, hi := base, base+slope*(rng-1)
	if lo > hi {
		lo, hi = hi, lo
	}
	cm.SDMin, cm.SDMax = lo, hi
	var missPositions int64
	switch {
	case lo > cache:
		missPositions = rng
	case hi <= cache:
		missPositions = 0
	case slope > 0:
		// positions a with base + slope*a > cache  <=>  a > (cache-base)/slope
		firstHitUpTo := (cache - base) / slope // last a that still hits
		missPositions = rng - 1 - firstHitUpTo
		if missPositions < 0 {
			missPositions = 0
		}
	case slope < 0:
		// misses at the low-a end: base + slope*a > cache <=> a < (base-cache)/(-slope)
		m := (base - cache + (-slope) - 1) / (-slope)
		missPositions = m
		if missPositions > rng {
			missPositions = rng
		}
	}
	// count is divisible by rng (the free loop's trip is one of its
	// factors); each position contributes count/rng instances.
	cm.Misses = v.Count / rng * missPositions
	return cm
}

// MissCurve evaluates the predicted fully-associative miss count at each
// capacity: one frame for the binding, one total per capacity. The curve is
// the model's counterpart of the simulator's success function.
func (a *Analysis) MissCurve(env expr.Env, capacities []int64) ([]int64, error) {
	f := a.ca.tab.FrameOf(env)
	out := make([]int64, len(capacities))
	for i, c := range capacities {
		total, err := a.PredictTotalFrameConfig(f, CacheConfig{CapacityElems: c})
		if err != nil {
			return nil, err
		}
		out[i] = total
	}
	return out, nil
}

// StackDistances returns every distinct symbolic stack-distance expression
// of the analysis (excluding first touches), optionally filtering out those
// that mention any of the given symbols (the paper's "expressions which do
// not involve loop bounds" mode for unknown-bound tile search).
func (a *Analysis) StackDistances(exclude map[string]bool) []LinForm {
	var out []LinForm
	seen := map[string]bool{}
	for _, c := range a.Components {
		if c.SD.Base.IsInf() {
			continue
		}
		if exclude != nil {
			if c.SD.Base.HasAnyVar(exclude) {
				continue
			}
			if c.SD.Slope != nil && c.SD.Slope.HasAnyVar(exclude) {
				continue
			}
		}
		key := c.SD.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, c.SD)
		}
	}
	return out
}

// Table renders the component inventory in the style of the paper's
// Table 1: one row per component with its pattern, instance count and stack
// distance.
func (a *Analysis) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Component inventory for %s\n", a.Nest.Name)
	byRef := map[string][]*Component{}
	var order []string
	for _, c := range a.Components {
		k := c.Site.Key()
		if len(byRef[k]) == 0 {
			order = append(order, k)
		}
		byRef[k] = append(byRef[k], c)
	}
	sort.Strings(order)
	for _, k := range order {
		comps := byRef[k]
		fmt.Fprintf(&b, "%s %s\n", k, comps[0].Site.Ref())
		for _, c := range comps {
			sd := c.SD.String()
			if c.SD.Base.IsInf() {
				sd = "inf"
			}
			mark := ""
			if !c.Exact {
				mark = " ~"
			}
			fmt.Fprintf(&b, "  %-12s %-28s #refs = %-28s SD = %s%s\n", c.Kind, c.Pattern, c.Count, sd, mark)
			if len(c.Breakdown) > 0 {
				parts := make([]string, len(c.Breakdown))
				for i, bc := range c.Breakdown {
					parts[i] = bc.Array + ": " + bc.Size.String()
				}
				fmt.Fprintf(&b, "               per-array: %s\n", strings.Join(parts, ", "))
			}
		}
	}
	return b.String()
}

// SummaryBySite returns, for each site, the total symbolic instance count —
// a consistency check against the trip-count product.
func (a *Analysis) SummaryBySite() map[string]*expr.Expr {
	out := map[string]*expr.Expr{}
	for _, c := range a.Components {
		k := c.Site.Key()
		if out[k] == nil {
			out[k] = expr.Zero()
		}
		out[k] = expr.Add(out[k], c.Count)
	}
	return out
}
