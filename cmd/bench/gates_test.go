package main

import (
	"strings"
	"testing"
)

// wantGates are the committed bounds. A gate that is loosened, tightened,
// made non-strict or dropped fails TestGatesAtBounds.
var wantGates = []gate{
	{layer: "sim", num: "exact-n512", den: "analytic-n512", min: 100},
	{layer: "serve", num: "batch-64", den: "predict-hot", min: 3},
	{layer: "cluster", num: "replicas-4", den: "replicas-1", min: 2.5},
	{layer: "opt", num: "twoindexchain-n32.tile_only_misses", den: "twoindexchain-n32.joint_misses", min: 1, strict: true},
	{layer: "opt", num: "twoindexchain-n64.tile_only_misses", den: "twoindexchain-n64.joint_misses", min: 1, strict: true},
	{layer: "opt", num: "matmul-naive-n128-8way.tile_only_misses", den: "matmul-naive-n128-8way.joint_misses", min: 1, strict: true},
}

func gateRows(w gate, num, den float64) []Row {
	return []Row{
		{Layer: w.layer, Name: w.num, Value: num},
		{Layer: w.layer, Name: w.den, Value: den},
		{Layer: w.layer, Name: "run.failures", Unit: failuresUnit},
	}
}

// TestGatesAtBounds evaluates every gate just above and just below its
// committed bound, exactly at it, with a failures row set, and with a row
// missing.
func TestGatesAtBounds(t *testing.T) {
	got := gates()
	if len(got) != len(wantGates) {
		t.Fatalf("%d gates, want %d: %v", len(got), len(wantGates), got)
	}
	for i, w := range wantGates {
		g := got[i]
		t.Run(g.String(), func(t *testing.T) {
			if g.layer != w.layer || g.num != w.num || g.den != w.den {
				t.Fatalf("gate %d is %s, want %s", i, g, w)
			}
			const den = 1000.0
			above, below := w.min*den*1.001, w.min*den*0.999
			if w.strict {
				// Integer miss counts: one fewer joint miss is the
				// smallest passing step.
				above, below = w.min*den+1, w.min*den
			}
			cases := []struct {
				name string
				rows []Row
				ok   bool
			}{
				{"above", gateRows(w, above, den), true},
				{"below", gateRows(w, below, den), false},
				{"at", gateRows(w, w.min*den, den), !w.strict},
				{"failures", func() []Row {
					rows := gateRows(w, above, den)
					rows[2].Value = 1
					return rows
				}(), false},
				{"missing", gateRows(w, above, den)[1:], false},
				{"other layer", func() []Row {
					rows := gateRows(w, above, den)
					rows[0].Layer = "elsewhere"
					return rows
				}(), false},
			}
			for _, tc := range cases {
				_, err := g.check(tc.rows)
				if (err == nil) != tc.ok {
					t.Errorf("%s: check = %v, want ok=%v", tc.name, err, tc.ok)
				}
			}
		})
	}
}

// TestFailuresRows: only a nonzero row in the failures unit fails a run.
func TestFailuresRows(t *testing.T) {
	rows := []Row{
		{Layer: "serve", Name: "predict-hot", Unit: "req/s", Value: 1e4},
		{Layer: "serve", Name: "predict-hot.failures", Unit: failuresUnit},
	}
	if err := failures(rows); err != nil {
		t.Fatal(err)
	}
	rows[1].Value = 3
	if err := failures(rows); err == nil || !strings.Contains(err.Error(), "serve/predict-hot.failures") {
		t.Fatalf("failures = %v, want the serve/predict-hot.failures row named", err)
	}
}

func TestParseBenchtime(t *testing.T) {
	for _, tc := range []struct {
		in     string
		rounds int
		ok     bool
	}{
		{"1x", 1, true}, {"30x", 30, true}, {"2s", 0, true}, {"500ms", 0, true},
		{"0x", 0, false}, {"x", 0, false}, {"0s", 0, false}, {"fast", 0, false},
	} {
		rounds, d, err := parseBenchtime(tc.in)
		if (err == nil) != tc.ok || rounds != tc.rounds || tc.ok && (rounds > 0) == (d > 0) {
			t.Errorf("parseBenchtime(%q) = %d, %v, %v", tc.in, rounds, d, err)
		}
	}
}
