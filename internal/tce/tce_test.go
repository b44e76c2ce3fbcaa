package tce

import (
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/trace"
)

func TestValidate(t *testing.T) {
	c, r := TwoIndexTransform()
	if err := c.Validate(r); err != nil {
		t.Fatal(err)
	}
	bad := Contraction{
		Result: Tensor{Name: "B", Indices: []string{"z"}},
		Inputs: []Tensor{{Name: "A", Indices: []string{"i"}}},
	}
	if err := bad.Validate(IndexRanges{"i": expr.Var("N"), "z": expr.Var("N")}); err == nil {
		t.Fatal("result index absent from inputs accepted")
	}
	dup := Contraction{
		Result: Tensor{Name: "B", Indices: []string{"i"}},
		Inputs: []Tensor{{Name: "A", Indices: []string{"i", "i"}}},
	}
	if err := dup.Validate(IndexRanges{"i": expr.Var("N")}); err == nil {
		t.Fatal("repeated index in one input accepted")
	}
}

func TestSumIndices(t *testing.T) {
	c, _ := TwoIndexTransform()
	got := c.SumIndices()
	if len(got) != 2 || got[0] != "i" || got[1] != "j" {
		t.Fatalf("sum indices %v", got)
	}
}

// TestOpMinTwoIndex: the optimal plan contracts A with C2 (or C1) first,
// reducing 4-index naive O(N^4)-per-output work to two matrix products.
func TestOpMinTwoIndex(t *testing.T) {
	c, r := TwoIndexTransform()
	rank := expr.Env{"N": 100, "V": 100}
	tree, err := OpMin(c, r, rank)
	if err != nil {
		t.Fatal(err)
	}
	steps := tree.Sequence()
	if len(steps) != 2 {
		t.Fatalf("two-index plan has %d steps, want 2", len(steps))
	}
	naive, _ := c.NaiveFlops(r).Eval(rank)
	opt, _ := tree.TotalFlops().Eval(rank)
	if opt >= naive {
		t.Fatalf("opmin did not help: %d vs naive %d", opt, naive)
	}
	// Optimal: 2·N²·V + 2·N·V² = 4e6+... = 2*1e6*... with N=V=100:
	// 2·100³ + 2·100³ = 4e6; naive = 2·2·100⁴ = 4e8.
	if opt != 4_000_000 {
		t.Fatalf("optimal flops %d want 4000000 (plan %s)", opt, tree)
	}
}

// TestOpMinFourIndex reproduces §2's reduction from O(V^4·N^4) to
// O(V·N^4)-dominated work: four successive index transformations.
func TestOpMinFourIndex(t *testing.T) {
	c, r := FourIndexTransform()
	rank := expr.Env{"N": 64, "V": 32}
	tree, err := OpMin(c, r, rank)
	if err != nil {
		t.Fatal(err)
	}
	steps := tree.Sequence()
	if len(steps) != 4 {
		t.Fatalf("four-index plan has %d steps, want 4", len(steps))
	}
	// The optimal chain transforms one index at a time:
	// 2·(V·N^4 + V^2·N^3 + V^3·N^2 + V^4·N).
	want := int64(2 * (32*64*64*64*64 + 32*32*64*64*64 + 32*32*32*64*64 + 32*32*32*32*64))
	got, _ := tree.TotalFlops().Eval(rank)
	if got != want {
		t.Fatalf("four-index optimal flops %d want %d (plan %s)", got, want, tree)
	}
	naive, _ := c.NaiveFlops(r).Eval(rank)
	if naive <= got {
		t.Fatalf("naive %d not worse than optimal %d", naive, got)
	}
}

func TestGenLoopNestTwoIndex(t *testing.T) {
	c, r := TwoIndexTransform()
	tree, err := OpMin(c, r, expr.Env{"N": 100, "V": 100})
	if err != nil {
		t.Fatal(err)
	}
	nest, err := GenLoopNest("two-index-unfused", tree.Sequence(), r)
	if err != nil {
		t.Fatal(err)
	}
	// 2 steps × (init + accumulate) = 4 statements.
	if got := len(nest.Stmts()); got != 4 {
		t.Fatalf("%d statements, want 4", got)
	}
	// The generated program must be analyzable and traceable.
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.Env{"N": 20, "V": 16}
	p, err := trace.Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckBounds(); err != nil {
		t.Fatal(err)
	}
	watches := []int64{8, 64, 512, 100000}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.Run(sim.Access)
	res := sim.Results()
	for i, cap := range watches {
		pred, err := a.PredictTotalFrameConfig(a.SymTab().FrameOf(env), core.CacheConfig{CapacityElems: cap})
		if err != nil {
			t.Fatal(err)
		}
		diff := pred - res.Misses[i]
		if diff < 0 {
			diff = -diff
		}
		tol := res.Misses[i]/5 + 3000
		if diff > tol {
			t.Errorf("cap %d: predicted %d vs simulated %d", cap, pred, res.Misses[i])
		}
	}
}

func TestFusableIndicesAndMemory(t *testing.T) {
	c, r := TwoIndexTransform()
	tree, err := OpMin(c, r, expr.Env{"N": 100, "V": 100})
	if err != nil {
		t.Fatal(err)
	}
	steps := tree.Sequence()
	fus := FusableIndices(steps[0], steps[1])
	if len(fus) == 0 {
		t.Fatalf("no fusable indices between %v and %v", steps[0], steps[1])
	}
	fusedSet := map[string]bool{}
	for _, ix := range fus {
		fusedSet[ix] = true
	}
	before, _ := IntermediateSize(steps[0].Out, nil, r).Eval(expr.Env{"N": 100, "V": 100})
	after, _ := IntermediateSize(steps[0].Out, fusedSet, r).Eval(expr.Env{"N": 100, "V": 100})
	if after >= before {
		t.Fatalf("fusion did not shrink intermediate: %d -> %d", before, after)
	}
	// Full fusion of the two-index intermediate reaches a scalar.
	if after != 1 {
		t.Fatalf("two-index intermediate fuses to %d elements, want 1", after)
	}
}

func TestFusedTwoIndexNest(t *testing.T) {
	n := expr.Var("N")
	v := expr.Var("V")
	r := IndexRanges{"i": n, "j": n, "m": v, "n": v}
	nest, err := FusedTwoIndex(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nest.String(), "T[1]") {
		t.Fatalf("intermediate not scalar:\n%s", nest)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.Env{"N": 24, "V": 16}
	p, err := trace.Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckBounds(); err != nil {
		t.Fatal(err)
	}
	watches := []int64{2, 30, 300, 100000}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.Run(sim.Access)
	res := sim.Results()
	for i, cap := range watches {
		pred, err := a.PredictTotalFrameConfig(a.SymTab().FrameOf(env), core.CacheConfig{CapacityElems: cap})
		if err != nil {
			t.Fatal(err)
		}
		diff := pred - res.Misses[i]
		if diff < 0 {
			diff = -diff
		}
		tol := res.Misses[i]/5 + 3000
		if diff > tol {
			t.Errorf("cap %d: predicted %d vs simulated %d\n%s", cap, pred, res.Misses[i], a.Table())
		}
	}
}

func TestGenLoopNestRejectsScalar(t *testing.T) {
	steps := []BinaryStep{{
		Out: Tensor{Name: "S"},
		In1: Tensor{Name: "X", Indices: []string{"i"}},
		In2: Tensor{Name: "Y", Indices: []string{"i"}},
	}}
	if _, err := GenLoopNest("dot", steps, IndexRanges{"i": expr.Var("N")}); err == nil {
		t.Fatal("scalar output accepted by unfused generator")
	}
}

func TestNaiveFlopsSingleInput(t *testing.T) {
	c := Contraction{
		Result: Tensor{Name: "B", Indices: []string{"i"}},
		Inputs: []Tensor{{Name: "A", Indices: []string{"i", "j"}}},
	}
	r := IndexRanges{"i": expr.Var("N"), "j": expr.Var("N")}
	got, _ := c.NaiveFlops(r).Eval(expr.Env{"N": 10})
	if got != 200 {
		t.Fatalf("naive flops %d want 200", got)
	}
}
