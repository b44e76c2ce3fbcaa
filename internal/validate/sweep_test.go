package validate

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/nestgen"
	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// sweepCorpus generates a small deterministic corpus for sweep tests.
func sweepCorpus(t *testing.T, n int) []Case {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	cases := make([]Case, 0, n)
	for i := 0; i < n; i++ {
		cfg := nestgen.Config{Imperfect: i%2 == 0, Tiled: i%3 == 0}
		nest, env := testutil.GenerateNest(t, r, i, cfg)
		a, err := core.Analyze(nest)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, Case{Name: nest.Name, Analysis: a, Env: env})
	}
	return cases
}

// scalarSweep is the per-access reference pipeline: trace.RunScalar
// feeding the Fenwick-tree cachesim.ReferenceSim, compared and counted the
// way the batched exact engine is. It is the differential oracle the
// batched path is pinned to.
func scalarSweep(t *testing.T, cases []Case, watches []int64, m *obs.Metrics) [][]Comparison {
	t.Helper()
	out := make([][]Comparison, len(cases))
	for i, c := range cases {
		p, err := trace.Compile(c.Analysis.Nest, c.Env)
		if err != nil {
			t.Fatal(err)
		}
		ref := cachesim.NewReferenceSim(p.Size, len(p.Sites), watches)
		p.RunScalar(ref.Access)
		ref.FlushMetrics(m)
		if out[i], err = compare(c.Analysis, c.Env, watches, ref.Results()); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRunSweepDeterministic pins the sharded sweep's determinism claim:
// identical comparisons and identical aggregated cachesim counters at every
// parallelism level, all equal to the sequential scalar reference.
func TestRunSweepDeterministic(t *testing.T) {
	cases := sweepCorpus(t, 9)
	watches := []int64{8, 64, 256}

	m := obs.New()
	ref := scalarSweep(t, cases, watches, m)
	refCounters := m.Counters()
	for _, j := range []int{1, 4, 8, -1} {
		m := obs.New()
		got, err := RunSweep(cases, watches, SweepOptions{Parallelism: j, Obs: m})
		if err != nil {
			t.Fatalf("sweep (j=%d): %v", j, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("comparisons at j=%d diverge from sequential scalar reference", j)
		}
		if counters := m.Counters(); !reflect.DeepEqual(counters, refCounters) {
			t.Fatalf("obs counters at j=%d diverge:\n%v\nwant\n%v", j, counters, refCounters)
		}
	}
}

// TestRunSweepEarliestError checks that with several failing cases the
// error reported is the lowest-indexed one, as a sequential sweep would
// report.
func TestRunSweepEarliestError(t *testing.T) {
	cases := sweepCorpus(t, 6)
	// Break cases 2 and 4 by removing a bound their traces need.
	breakCase := func(i int) {
		env := expr.Env{}
		for k, v := range cases[i].Env {
			env[k] = v
		}
		for k := range env {
			delete(env, k)
			break
		}
		cases[i].Env = env
	}
	breakCase(2)
	breakCase(4)
	// Ensure deleting a symbol actually breaks evaluation.
	if _, err := RunSweep(cases[2:3], []int64{8}, SweepOptions{}); err == nil {
		t.Skip("corpus case needs no bounds; cannot construct failure")
	}
	for _, j := range []int{1, 8} {
		_, err := RunSweep(cases, []int64{8}, SweepOptions{Parallelism: j})
		if err == nil {
			t.Fatalf("j=%d: expected error", j)
		}
		_, seqErr := RunSweep(cases[2:3], []int64{8}, SweepOptions{})
		if err.Error() != seqErr.Error() {
			t.Fatalf("j=%d: got %q, want earliest failure %q", j, err, seqErr)
		}
	}
}

// TestRunObservedBatchedMatchesScalar pins RunObserved (on the batched
// pipeline) to the scalar reference path on the sweep corpus.
func TestRunObservedBatchedMatchesScalar(t *testing.T) {
	cases := sweepCorpus(t, 4)
	watches := []int64{4, 16, 128}
	for _, c := range cases {
		batched, err := RunObserved(c.Analysis, c.Env, watches, nil)
		if err != nil {
			t.Fatal(err)
		}
		scalar := scalarSweep(t, []Case{c}, watches, nil)
		if !reflect.DeepEqual(batched, scalar[0]) {
			t.Fatalf("%s: batched and scalar comparisons diverge", c.Name)
		}
	}
}

// TestRunSweepOddBlockSize runs the sweep at a deliberately tiny block size
// to force many mid-loop flushes.
func TestRunSweepOddBlockSize(t *testing.T) {
	cases := sweepCorpus(t, 3)
	watches := []int64{8, 64}
	ref := scalarSweep(t, cases, watches, nil)
	got, err := RunSweep(cases, watches, SweepOptions{BlockSize: 3, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("block size 3 diverges from scalar reference")
	}
}

// TestSweepCaseNames is a sanity check that corpus names are distinct (the
// sweep result is positional; names are for reporting only).
func TestSweepCaseNames(t *testing.T) {
	cases := sweepCorpus(t, 5)
	seen := map[string]bool{}
	for _, c := range cases {
		if c.Name == "" || strings.TrimSpace(c.Name) == "" {
			t.Fatal("empty case name")
		}
		seen[c.Name] = true
	}
	if len(seen) < 2 {
		t.Fatalf("corpus names not distinct: %v", seen)
	}
}
