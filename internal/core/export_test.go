package core

import (
	"fmt"

	"repro/internal/expr"
)

// The tree-walking oracle: the model evaluated by walking each component's
// expression trees over an Env, independently of the compiled programs the
// production path (Analysis.predict) runs on frames. The differential tests
// here and in the external core_test package compare the two.

// TreePredict is PredictMissesFrameConfig evaluated by the oracle: Env
// validation through loopir, component values by tree walking, the same
// geometry check. Set-associative configs classify the tree values
// through the compiled conflict layer, which has no tree twin.
func (a *Analysis) TreePredict(env expr.Env, cfg CacheConfig) (*MissReport, error) {
	if err := cfg.validatePredict(); err != nil {
		return nil, err
	}
	ncfg := cfg.norm()
	if err := a.Nest.ValidateEnv(env); err != nil {
		return nil, err
	}
	var ce *conflictEval
	if !ncfg.FullyAssociative() {
		ce = a.ca.newConflictEval(a.ca.tab.FrameOf(env), ncfg)
	}
	rep := &MissReport{CacheElems: cfg.CapacityElems, BySite: map[string]int64{}}
	for i, c := range a.Components {
		v, err := evalComponentValues(c, env)
		if err != nil {
			return nil, err
		}
		var cm ComponentMisses
		if ce != nil {
			if cm, err = ce.classify(i, c, v, ncfg.CapacityElems); err != nil {
				return nil, err
			}
		} else {
			cm = classifyComponent(c, v, ncfg.CapacityElems)
		}
		rep.Detail = append(rep.Detail, cm)
		rep.Total += cm.Misses
		rep.BySite[c.Site.Key()] += cm.Misses
		rep.Accesses += cm.Count
	}
	return rep, nil
}

// evalComponentValues evaluates the component's expressions under env by
// tree walking: the oracle twin of evalComponentValuesFrame.
func evalComponentValues(c *Component, env expr.Env) (componentValues, error) {
	var v componentValues
	count, err := c.Count.Eval(env)
	if err != nil {
		return v, err
	}
	if count < 0 {
		count = 0 // e.g. (trip-1) when a loop has a single iteration
	}
	v.Count = count
	if c.SD.Base.IsInf() {
		v.Inf = true
		return v, nil
	}
	if count == 0 {
		v.Const = true
		return v, nil
	}
	if c.SD.IsConst() {
		v.Const = true
		v.SD, err = c.SD.Base.Eval(env)
		return v, err
	}
	if v.Base, err = c.SD.Base.Eval(env); err != nil {
		return v, err
	}
	if v.Slope, err = c.SD.Slope.Eval(env); err != nil {
		return v, err
	}
	if v.Range, err = c.FreeRange.Eval(env); err != nil {
		return v, err
	}
	if v.Range <= 0 {
		return v, fmt.Errorf("core: non-positive free range for %s", c.Site.Key())
	}
	return v, nil
}

// missesAt, totalAt and cachedTotalAt run the production path at an Env
// binding and a fully-associative capacity, for tests that start from an
// Env.
func missesAt(a *Analysis, env expr.Env, capacity int64) (*MissReport, error) {
	return a.PredictMissesFrameConfig(a.SymTab().FrameOf(env), CacheConfig{CapacityElems: capacity})
}

func totalAt(a *Analysis, env expr.Env, capacity int64) (int64, error) {
	return a.PredictTotalFrameConfig(a.SymTab().FrameOf(env), CacheConfig{CapacityElems: capacity})
}

func cachedTotalAt(ec *EvalCache, env expr.Env, capacity int64) (int64, error) {
	return ec.PredictTotalFrameConfig(ec.a.SymTab().FrameOf(env), CacheConfig{CapacityElems: capacity})
}
