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

// randomNest generates a random nest within the supported class: a loop
// tree of depth 2–4 with 1–3 statements, each referencing 1–3 arrays whose
// subscripts are distinct enclosing loop indices.
func randomNest(r *rand.Rand, id int) (*loopir.Nest, expr.Env, error) {
	nLoops := 2 + r.Intn(3)
	idxNames := []string{"i", "j", "k", "l"}[:nLoops]
	env := expr.Env{}
	var trips []*expr.Expr
	for _, nm := range idxNames {
		v := expr.Var("N" + nm)
		trips = append(trips, v)
		env["N"+nm] = int64(2 + r.Intn(5))
	}

	arrNames := []string{"A", "B", "C"}[:1+r.Intn(3)]
	// Pick dimensions for each array as random subsets of loops (1..2 dims).
	dimsOf := map[string][]int{} // loop positions per dim
	var arrays []*loopir.Array
	for _, an := range arrNames {
		nd := 1 + r.Intn(2)
		perm := r.Perm(nLoops)
		var dims []int
		for _, p := range perm[:nd] {
			dims = append(dims, p)
		}
		dimsOf[an] = dims
		var extents []*expr.Expr
		for _, p := range dims {
			extents = append(extents, trips[p])
		}
		arrays = append(arrays, &loopir.Array{Name: an, Dims: extents})
	}

	mkStmt := func(label string, avail []string) *loopir.Stmt {
		st := &loopir.Stmt{Label: label}
		// Each statement references a random non-empty subset of arrays.
		for _, an := range arrNames {
			if r.Intn(2) == 0 && len(st.Refs) > 0 {
				continue
			}
			var subs []loopir.Subscript
			usable := true
			for _, p := range dimsOf[an] {
				if p >= len(avail) || avail[p] == "" {
					usable = false
					break
				}
				subs = append(subs, loopir.Idx(avail[p]))
			}
			if !usable {
				continue
			}
			st.Refs = append(st.Refs, loopir.Ref{Array: an, Mode: loopir.Read, Subs: subs})
		}
		if len(st.Refs) == 0 {
			return nil
		}
		return st
	}

	// Build either a perfect nest or an imperfect one with a sub-loop split.
	avail := make([]string, nLoops)
	copy(avail, idxNames)
	var body []loopir.Node
	if s := mkStmt("S1", avail); s != nil {
		body = append(body, s)
	}
	var node loopir.Node
	if len(body) == 0 {
		return nil, nil, fmt.Errorf("empty statement")
	}
	node = body[0]
	for i := nLoops - 1; i >= 0; i-- {
		l := &loopir.Loop{Index: idxNames[i], Trip: trips[i], Body: []loopir.Node{node}}
		node = l
	}
	nest, err := loopir.NewNest(fmt.Sprintf("rand-%d", id), arrays, []loopir.Node{node})
	return nest, env, err
}

// TestQuickRandomNestsPredictVsSim fuzzes the model against the exact
// simulator on random in-class nests and random cache capacities. Spans use
// generic-position representatives, so boundary instances may deviate; the
// tolerance scales with the sub-dominant iteration count.
func TestQuickRandomNestsPredictVsSim(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tried := 0
	for id := 0; tried < 60; id++ {
		nest, env, err := randomNest(r, id)
		if err != nil {
			continue
		}
		a, err := Analyze(nest)
		if err != nil {
			t.Fatalf("nest %d: %v\n%s", id, err, nest)
		}
		tried++
		p, err := trace.Compile(nest, env)
		if err != nil {
			t.Fatal(err)
		}
		watches := []int64{1, 2, 3, 5, 9, 17, 40, 1000}
		sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
		p.Run(sim.Access)
		res := sim.Results()

		total, _ := nest.TotalIterations().Eval(env)
		// Boundary slack: one sub-dominant slice per loop level per site.
		maxTrip := int64(1)
		for _, l := range nest.Loops() {
			v, _ := l.Trip.Eval(env)
			if v > maxTrip {
				maxTrip = v
			}
		}
		slack := int64(len(nest.Sites())) * (total/maxTrip + maxTrip + 4)

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
		// First-touch totals are exact by construction.
		predInf, _ := totalAt(a, env, 1<<40)
		if predInf != res.Distinct {
			// Every element touched is a compulsory miss; the model's
			// first-touch counts must sum to the distinct address count.
			t.Errorf("nest %d: compulsory %d vs distinct %d\nenv=%v\n%s\n%s",
				id, predInf, res.Distinct, env, nest, a.Table())
		}
	}
}

// TestQuickCountConservation: per site, component counts must sum to the
// site's total instance count, symbolically.
func TestQuickCountConservation(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tried := 0
	for id := 0; tried < 40; id++ {
		nest, _, err := randomNest(r, id)
		if err != nil {
			continue
		}
		a, err := Analyze(nest)
		if err != nil {
			t.Fatal(err)
		}
		tried++
		sums := a.SummaryBySite()
		for _, site := range nest.Sites() {
			want := expr.One()
			for _, l := range nest.Enclosing(site.Stmt) {
				want = expr.Mul(want, l.Trip)
			}
			got := sums[site.Key()]
			if got == nil || !got.Equal(want) {
				t.Errorf("nest %d site %s: count sum %s want %s", id, site.Key(), got, want)
			}
		}
	}
}
