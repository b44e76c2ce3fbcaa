package tilesearch

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/expr"
)

// §6 of the paper divides the behaviour of the miss count as tiles grow
// into four phases, delimited by the tile sizes at which individual stack
// distances cross the cache capacity. KneeAnalysis makes those transition
// points explicit: for each stack-distance expression and each tile
// dimension, the largest tile value (with the other dimensions held fixed)
// for which the distance still fits in the cache. Only tile sizes just
// below a knee are candidate optima — the pruning insight behind the
// search.

// Knee records one crossing point.
type Knee struct {
	SD        core.LinForm // the stack distance expression
	Dim       string       // the tile dimension being grown
	LastFit   int64        // largest value of Dim with SD <= cache (0 = never fits)
	AlwaysFit bool         // SD never exceeds the cache within the range
}

// KneeAnalysis computes, for every distinct stack-distance expression of
// the analysis, the crossing point along each tile dimension, holding the
// other dimensions at the values in base. Each distance is compiled once
// and the per-value inner loop mutates a single slot of a reused frame —
// the loop used to build a fresh Env map per tile value.
func KneeAnalysis(a *core.Analysis, base expr.Env, dims []Dim, cacheElems int64) ([]Knee, error) {
	tab := a.SymTab()
	f := tab.NewFrame()
	var out []Knee
	for _, sd := range a.StackDistances(nil) {
		pBase := expr.Compile(sd.Base, tab)
		var pSlope *expr.Program
		if !sd.IsConst() {
			pSlope = expr.Compile(sd.Slope, tab)
		}
		// The SD may not mention a dimension at all.
		vars := map[string]bool{}
		sd.Base.Vars(vars)
		if sd.Slope != nil {
			sd.Slope.Vars(vars)
		}
		for _, d := range dims {
			k := Knee{SD: sd, Dim: d.Symbol}
			if !vars[d.Symbol] {
				continue
			}
			// The surrogate free-variable bound maxSD used: the largest value
			// in the environment. The tile value under sweep contributes too,
			// so split off the max over the other bindings once.
			maxOther := int64(1)
			for kk, vv := range base {
				if kk != d.Symbol && vv > maxOther {
					maxOther = vv
				}
			}
			slot := tab.Slot(d.Symbol)
			f.Reset()
			f.Bind(base)
			lastFit := int64(0)
			alwaysFit := true
			for v := int64(1); v <= d.Max; v++ {
				f.Set(slot, v)
				val, err := maxSDFrame(pBase, pSlope, f, maxOther, v)
				if err != nil {
					return nil, err
				}
				if val <= cacheElems {
					lastFit = v
				} else {
					alwaysFit = false
				}
			}
			k.LastFit = lastFit
			k.AlwaysFit = alwaysFit
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dim != out[j].Dim {
			return out[i].Dim < out[j].Dim
		}
		return out[i].LastFit < out[j].LastFit
	})
	return out, nil
}

// KneeAnalysisConfig is KneeAnalysis against a set-associative geometry: a
// tile value "fits" when every component carrying the stack-distance
// expression predicts zero misses under the conflict-aware model, not when
// the raw distance is below capacity. The two notions coincide on a
// fully-associative config, so that case delegates to KneeAnalysis and the
// knee tables stay byte-identical when Ways is omitted. On a set-associative
// config knees move in both directions relative to the conservative
// capacity test: a distance that fits by capacity can still thrash a
// resonant set (knee moves left), and a whole-range thrash that the
// capacity test condemns can be confined by the set split (knee moves
// right).
func KneeAnalysisConfig(a *core.Analysis, base expr.Env, dims []Dim, cfg core.CacheConfig) ([]Knee, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.FullyAssociative() {
		return KneeAnalysis(a, base, dims, cfg.CapacityElems)
	}
	tab := a.SymTab()
	f := tab.NewFrame()
	// Group finite components by their stack-distance expression, in
	// component order, so each distinct expression yields one knee per
	// dimension exactly as KneeAnalysis's StackDistances sweep does.
	type sdGroup struct {
		sd   core.LinForm
		idxs []int
		vars map[string]bool
	}
	var groups []*sdGroup
	byKey := map[string]*sdGroup{}
	for i, c := range a.Components {
		if c.SD.Base.IsInf() {
			continue // compulsory: misses regardless of tile size
		}
		key := c.SD.String()
		g, ok := byKey[key]
		if !ok {
			vars := map[string]bool{}
			c.SD.Base.Vars(vars)
			if c.SD.Slope != nil {
				c.SD.Slope.Vars(vars)
			}
			g = &sdGroup{sd: c.SD, vars: vars}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.idxs = append(g.idxs, i)
	}
	var out []Knee
	for _, d := range dims {
		swept := false
		for _, g := range groups {
			if g.vars[d.Symbol] {
				swept = true
				break
			}
		}
		if !swept {
			continue
		}
		slot := tab.Slot(d.Symbol)
		lastFit := make([]int64, len(groups))
		alwaysFit := make([]bool, len(groups))
		for gi := range alwaysFit {
			alwaysFit[gi] = true
		}
		for v := int64(1); v <= d.Max; v++ {
			f.Reset()
			f.Bind(base)
			f.Set(slot, v)
			rep, err := a.PredictMissesFrameConfig(f, cfg)
			if err != nil {
				return nil, err
			}
			for gi, g := range groups {
				if !g.vars[d.Symbol] {
					continue
				}
				fits := true
				for _, ci := range g.idxs {
					if rep.Detail[ci].Misses > 0 {
						fits = false
						break
					}
				}
				if fits {
					lastFit[gi] = v
				} else {
					alwaysFit[gi] = false
				}
			}
		}
		for gi, g := range groups {
			if !g.vars[d.Symbol] {
				continue
			}
			out = append(out, Knee{SD: g.sd, Dim: d.Symbol, LastFit: lastFit[gi], AlwaysFit: alwaysFit[gi]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dim != out[j].Dim {
			return out[i].Dim < out[j].Dim
		}
		return out[i].LastFit < out[j].LastFit
	})
	return out, nil
}

// maxSDFrame evaluates the largest value a (possibly position-dependent)
// stack distance takes on the frame, through its compiled base and slope
// programs. maxOther and v reconstruct the surrogate free-variable bound —
// the largest bound symbol — without scanning an Env. The tests keep a
// tree-walking twin (maxSD) as the oracle for knee claims.
func maxSDFrame(pBase, pSlope *expr.Program, f *expr.Frame, maxOther, v int64) (int64, error) {
	base, err := pBase.Eval(f)
	if err != nil {
		return 0, err
	}
	if pSlope == nil {
		return base, nil
	}
	slope, err := pSlope.Eval(f)
	if err != nil {
		return 0, err
	}
	maxSym := maxOther
	if v > maxSym {
		maxSym = v
	}
	if slope > 0 {
		return base + slope*(maxSym-1), nil
	}
	return base, nil
}

// FormatKnees renders the knee table.
func FormatKnees(knees []Knee) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %s\n", "dim", "last-fit", "stack distance")
	for _, k := range knees {
		fit := fmt.Sprint(k.LastFit)
		if k.AlwaysFit {
			fit = "all"
		} else if k.LastFit == 0 {
			fit = "never"
		}
		fmt.Fprintf(&b, "%-6s %-10s %s\n", k.Dim, fit, k.SD)
	}
	return b.String()
}
