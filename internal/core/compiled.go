package core

import (
	"fmt"

	"repro/internal/expr"
)

// The compiled layer of an Analysis: every environment-dependent expression
// the miss estimator evaluates — loop trips, array extents, and each
// component's Count/SD/FreeRange — flattened once into expr.Programs over a
// single analysis-wide SymTab. Every prediction then runs through a Frame
// (Analysis.predict) without allocating an Env map or walking a tree, which
// is what makes per-candidate evaluation in the tile search cheap.
//
// Slot assignment is deterministic: nest symbols first (sorted, as
// SymbolNames returns them), then any remaining symbols in the order the
// trip, extent and component programs are compiled. Re-analyzing the same
// nest therefore reproduces the same name→slot mapping, which keeps the
// EvalCache's packed binary keys stable (symtab_test.go pins the property).
type compiledAnalysis struct {
	tab      *expr.SymTab
	symbols  []string // nest.SymbolNames(), sorted
	symSlots []int    // slot of symbols[i]
	trips    []tripProg
	dims     []dimProg
	comps    []compiledComponent
	// conf is the associativity-aware stride-lattice layer (conflict.go).
	// Its programs are excluded from programCount so the "expr.programs"
	// gauge keeps measuring the fully-associative prediction pipeline.
	conf *conflictLayer
}

type tripProg struct {
	index string
	src   *expr.Expr
	prog  *expr.Program
}

type dimProg struct {
	array string
	di    int
	src   *expr.Expr
	prog  *expr.Program
}

type compiledComponent struct {
	count   *expr.Program
	inf     bool // first touch: SD.Base is the Inf sentinel
	constSD bool
	base    *expr.Program // nil when inf
	slope   *expr.Program // nil when inf or constSD
	rng     *expr.Program // nil when inf or constSD
	site    string        // Site.Key(), for the non-positive-range error
}

// compileAnalysis builds the compiled layer. Called once from
// AnalyzeWithOptions; the analysis must not be mutated afterwards.
func compileAnalysis(a *Analysis) *compiledAnalysis {
	ca := &compiledAnalysis{tab: expr.NewSymTab()}
	ca.symbols = a.Nest.SymbolNames()
	ca.symSlots = make([]int, len(ca.symbols))
	for i, name := range ca.symbols {
		ca.symSlots[i] = ca.tab.Slot(name)
	}
	for _, l := range a.Nest.Loops() {
		ca.trips = append(ca.trips, tripProg{
			index: l.Index, src: l.Trip, prog: expr.Compile(l.Trip, ca.tab),
		})
	}
	for _, arr := range a.Nest.Arrays {
		for di, d := range arr.Dims {
			ca.dims = append(ca.dims, dimProg{
				array: arr.Name, di: di, src: d, prog: expr.Compile(d, ca.tab),
			})
		}
	}
	ca.comps = make([]compiledComponent, len(a.Components))
	for i, c := range a.Components {
		cc := compiledComponent{
			count: expr.Compile(c.Count, ca.tab),
			site:  c.Site.Key(),
		}
		switch {
		case c.SD.Base.IsInf():
			cc.inf = true
		case c.SD.IsConst():
			cc.constSD = true
			cc.base = expr.Compile(c.SD.Base, ca.tab)
		default:
			cc.base = expr.Compile(c.SD.Base, ca.tab)
			cc.slope = expr.Compile(c.SD.Slope, ca.tab)
			cc.rng = expr.Compile(c.FreeRange, ca.tab)
		}
		ca.comps[i] = cc
	}
	ca.conf = buildConflictLayer(a, ca)
	return ca
}

// programCount reports how many programs the compiled layer holds (the
// "expr.programs" gauge).
func (ca *compiledAnalysis) programCount() int64 {
	n := int64(len(ca.trips) + len(ca.dims))
	for _, cc := range ca.comps {
		n++ // count
		if cc.base != nil {
			n++
		}
		if cc.slope != nil {
			n++
		}
		if cc.rng != nil {
			n++
		}
	}
	return n
}

// SymTab returns the analysis-wide symbol table every compiled program and
// Frame of this analysis indexes.
func (a *Analysis) SymTab() *expr.SymTab { return a.ca.tab }

// NewFrame returns an empty frame over the analysis symbol table. Frames are
// single-goroutine; give each worker its own and reuse it across candidates.
func (a *Analysis) NewFrame() *expr.Frame { return a.ca.tab.NewFrame() }

// GetFrame returns an empty frame over the analysis symbol table, recycled
// through a pool. The caller owns the frame exclusively until PutFrame; the
// serving layer evaluates each request on a pooled frame so the per-request
// steady state allocates no frame storage. Frames remain single-goroutine
// scratch between Get and Put.
func (a *Analysis) GetFrame() *expr.Frame {
	if f, ok := a.framePool.Get().(*expr.Frame); ok {
		return f
	}
	return a.NewFrame()
}

// PutFrame resets the frame and returns it to the pool. The frame must have
// come from GetFrame (or NewFrame over the same analysis) and must not be
// used after the call.
func (a *Analysis) PutFrame(f *expr.Frame) {
	if f == nil {
		return
	}
	f.Reset()
	a.framePool.Put(f)
}

// validateFrame is loopir.Nest.ValidateEnv over a frame: same checks, same
// error messages, same order, but evaluated through the compiled trip and
// extent programs.
func (ca *compiledAnalysis) validateFrame(f *expr.Frame) error {
	for i, name := range ca.symbols {
		v, ok := f.Get(ca.symSlots[i])
		if !ok {
			return fmt.Errorf("loopir: env missing symbol %s", name)
		}
		if v <= 0 {
			return fmt.Errorf("loopir: symbol %s must be positive, got %d", name, v)
		}
	}
	for _, t := range ca.trips {
		v, err := t.prog.Eval(f)
		if err != nil {
			return err
		}
		if v <= 0 {
			return fmt.Errorf("loopir: loop %s trip %s evaluates to %d", t.index, t.src, v)
		}
	}
	for _, d := range ca.dims {
		v, err := d.prog.Eval(f)
		if err != nil {
			return err
		}
		if v <= 0 {
			return fmt.Errorf("loopir: array %s dim %d extent %s evaluates to %d", d.array, d.di, d.src, v)
		}
	}
	return nil
}

// evalComponentValuesFrame evaluates the component's expressions through
// the compiled programs. The tests keep a tree-walking twin over an Env
// (export_test.go) as the differential oracle: identical values, identical
// errors.
func (cc *compiledComponent) evalComponentValuesFrame(f *expr.Frame) (componentValues, error) {
	var v componentValues
	count, err := cc.count.Eval(f)
	if err != nil {
		return v, err
	}
	if count < 0 {
		count = 0 // e.g. (trip-1) when a loop has a single iteration
	}
	v.Count = count
	if cc.inf {
		v.Inf = true
		return v, nil
	}
	if count == 0 {
		// No instances: the component contributes nothing at any capacity.
		// Short-circuit before the SD/range expressions, which may be
		// degenerate (e.g. a zero free range) in the same boundary regimes
		// that zero the count.
		v.Const = true
		return v, nil
	}
	if cc.constSD {
		v.Const = true
		v.SD, err = cc.base.Eval(f)
		return v, err
	}
	if v.Base, err = cc.base.Eval(f); err != nil {
		return v, err
	}
	if v.Slope, err = cc.slope.Eval(f); err != nil {
		return v, err
	}
	if v.Range, err = cc.rng.Eval(f); err != nil {
		return v, err
	}
	if v.Range <= 0 {
		return v, fmt.Errorf("core: non-positive free range for %s", cc.site)
	}
	return v, nil
}
