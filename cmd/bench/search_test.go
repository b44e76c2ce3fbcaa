package main

import (
	"testing"

	"repro/internal/expr"
)

// TestTreeCompiledChecksumsMatch: compiled evaluation, which the eval rows
// time, must agree with the tree walk on every component expression.
func TestTreeCompiledChecksumsMatch(t *testing.T) {
	w, err := newMatmul(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	exprs := componentExprs(w.a)
	if len(exprs) == 0 {
		t.Fatal("workload has no expressions")
	}
	var tree int64
	var progs []*expr.Program
	for _, e := range exprs {
		v, err := e.Eval(w.env)
		if err != nil {
			t.Fatal(err)
		}
		tree += v
		progs = append(progs, expr.Compile(e, w.a.SymTab()))
	}
	compiled, err := evalCompiled(progs, w.a.SymTab().FrameOf(w.env))
	if err != nil {
		t.Fatal(err)
	}
	if tree != compiled {
		t.Errorf("tree checksum %d != compiled checksum %d over %d exprs", tree, compiled, len(exprs))
	}
}

// TestWorkloadsImprove pins the opt gate's claim through the measured
// code: on every workload the joint winner strictly beats the tile-only
// baseline in predicted misses, and the joint search's own identity
// variant scores exactly the baseline.
func TestWorkloadsImprove(t *testing.T) {
	for _, wl := range optWorkloads {
		t.Run(wl.name, func(t *testing.T) {
			joint, err := wl.search(true)
			if err != nil {
				t.Fatal(err)
			}
			base, err := wl.search(false)
			if err != nil {
				t.Fatal(err)
			}
			jm := joint.Best().Result.Best.Misses
			bm := base.Best().Result.Best.Misses
			if jm >= bm {
				t.Errorf("joint %d misses (plan %s), tile-only %d — no structural win", jm, joint.Best().Plan, bm)
			}
			if got := joint.Baseline().Result.Best.Misses; got != bm {
				t.Errorf("joint identity variant %d misses, standalone baseline %d", got, bm)
			}
		})
	}
}
