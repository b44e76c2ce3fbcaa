package main

import (
	"testing"
	"time"
)

// TestWindowStatsDropsStolenSlices builds a 4-second run whose slices
// complete 10, 20, 30 and 40 one-item requests and checks which slices the
// steal figures let into the medians.
func TestWindowStatsDropsStolenSlices(t *testing.T) {
	var outs []outcome
	for b := 0; b < 4; b++ {
		n := 10 * (b + 1)
		for i := 0; i < n; i++ {
			done := time.Duration(b)*time.Second + time.Duration(i)*time.Second/time.Duration(n)
			outs = append(outs, outcome{lat: time.Duration(b+1) * time.Millisecond, done: done})
		}
	}
	one := func(outcome) int { return 1 }
	for _, c := range []struct {
		name  string
		steal []int64
		rate  float64
		p50   float64
	}{
		{"no steal figures", nil, 25, 2.5},
		{"nothing stolen", []int64{0, 0, 0, 0}, 25, 2.5},
		{"least stolen slice only", []int64{9, 0, 5, 7}, 20, 2},
		{"ties at the lower quartile", []int64{1, 1, 8, 8}, 15, 1.5},
	} {
		rate, p50, _ := windowStats(outs, 4*time.Second, c.steal, one)
		if rate != c.rate || p50 != c.p50 {
			t.Errorf("%s: rate %v p50 %v ms, want %v and %v", c.name, rate, p50, c.rate, c.p50)
		}
	}
}
