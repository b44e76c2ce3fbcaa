package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/expr"
	"repro/internal/loopir"
	"repro/internal/trace"
)

// randomImperfectNest builds a random imperfect loop tree: an outer loop
// containing 2–3 branches, each a sub-nest with its own statement. Arrays
// are shared across branches so that cross-statement reuse arises.
func randomImperfectNest(r *rand.Rand, id int) (*loopir.Nest, expr.Env, error) {
	env := expr.Env{}
	trip := func(name string, lo, hi int) *expr.Expr {
		env["N"+name] = int64(lo + r.Intn(hi-lo+1))
		return expr.Var("N" + name)
	}
	outerIdx := "o"
	outerTrip := trip("o", 2, 5)

	// Shared arrays: S indexed by the outer loop, plus per-branch arrays.
	arrays := []*loopir.Array{
		{Name: "S", Dims: []*expr.Expr{outerTrip}},
	}
	var branches []loopir.Node
	nBranches := 2 + r.Intn(2)
	for bi := 0; bi < nBranches; bi++ {
		idx := fmt.Sprintf("b%d", bi)
		btrip := trip(idx, 2, 5)
		aname := fmt.Sprintf("A%d", bi)
		var dims []*expr.Expr
		var subs []loopir.Subscript
		switch r.Intn(3) {
		case 0: // A[inner]
			dims = []*expr.Expr{btrip}
			subs = []loopir.Subscript{loopir.Idx(idx)}
		case 1: // A[outer, inner]
			dims = []*expr.Expr{outerTrip, btrip}
			subs = []loopir.Subscript{loopir.Idx(outerIdx), loopir.Idx(idx)}
		default: // A[inner, outer]
			dims = []*expr.Expr{btrip, outerTrip}
			subs = []loopir.Subscript{loopir.Idx(idx), loopir.Idx(outerIdx)}
		}
		arrays = append(arrays, &loopir.Array{Name: aname, Dims: dims})
		refs := []loopir.Ref{
			{Array: aname, Mode: loopir.Read, Subs: subs},
		}
		// Half the branches also touch the shared array S.
		if r.Intn(2) == 0 {
			refs = append(refs, loopir.Ref{
				Array: "S", Mode: loopir.Update,
				Subs: []loopir.Subscript{loopir.Idx(outerIdx)},
			})
		}
		branches = append(branches, &loopir.Loop{
			Index: idx, Trip: btrip,
			Body: []loopir.Node{&loopir.Stmt{Label: fmt.Sprintf("S%d", bi+1), Refs: refs}},
		})
	}
	root := []loopir.Node{&loopir.Loop{Index: outerIdx, Trip: outerTrip, Body: branches}}
	nest, err := loopir.NewNest(fmt.Sprintf("randimp-%d", id), arrays, root)
	return nest, env, err
}

// TestQuickImperfectNestsPredictVsSim fuzzes the cross-statement machinery:
// random imperfect nests with shared arrays across branches.
func TestQuickImperfectNestsPredictVsSim(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for id := 0; id < 80; id++ {
		nest, env, err := randomImperfectNest(r, id)
		if err != nil {
			t.Fatalf("nest %d: %v", id, err)
		}
		a, err := Analyze(nest)
		if err != nil {
			t.Fatalf("nest %d: %v\n%s", id, err, nest)
		}
		p, err := trace.Compile(nest, env)
		if err != nil {
			t.Fatal(err)
		}
		watches := []int64{1, 2, 4, 8, 16, 1000}
		sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
		p.Run(sim.Access)
		res := sim.Results()

		// Compulsory misses must be exact.
		predInf, err := totalAt(a, env, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		if predInf != res.Distinct {
			t.Errorf("nest %d: compulsory %d vs distinct %d\nenv=%v\n%s\n%s",
				id, predInf, res.Distinct, env, nest, a.Table())
			continue
		}
		// Totals within boundary slack.
		total := res.Accesses
		slack := total/3 + 30
		for i, cap := range watches {
			pred, err := totalAt(a, env, cap)
			if err != nil {
				t.Fatal(err)
			}
			diff := pred - res.Misses[i]
			if diff < 0 {
				diff = -diff
			}
			if diff > slack {
				t.Errorf("nest %d cap %d: predicted %d vs simulated %d (slack %d)\nenv=%v\n%s\n%s",
					id, cap, pred, res.Misses[i], slack, env, nest, a.Table())
			}
		}
		// Count conservation per site.
		for site, sum := range a.SummaryBySite() {
			var want *expr.Expr
			for _, s := range nest.Sites() {
				if s.Key() == site {
					want = expr.One()
					for _, l := range nest.Enclosing(s.Stmt) {
						want = expr.Mul(want, l.Trip)
					}
				}
			}
			if want == nil || !sum.Equal(want) {
				t.Errorf("nest %d site %s: count sum %s want %s", id, site, sum, want)
			}
		}
	}
}
