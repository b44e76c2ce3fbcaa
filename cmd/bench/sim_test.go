package main

import (
	"reflect"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/validate"
)

// TestWorkloadPathsAgree: the batched pipeline the exact rows time must
// produce the per-access reference pipeline's Results on the workload.
func TestWorkloadPathsAgree(t *testing.T) {
	w, err := newMatmul(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := cachesim.NewReferenceSim(w.prog.Size, len(w.prog.Sites), simWatches)
	w.prog.RunScalar(ref.Access)
	scalar, batched := ref.Results(), w.exact()
	if !reflect.DeepEqual(scalar, batched) {
		t.Fatalf("pipelines diverge:\nscalar  %+v\nbatched %+v", scalar, batched)
	}
	if scalar.Accesses != w.accesses {
		t.Fatalf("simulated %d accesses, workload declares %d", scalar.Accesses, w.accesses)
	}
}

// TestEngineWorkloadsAgree plays the workload through the sampled and
// analytic engines and checks them against exact where the contract is
// exact: totals always; sampled misses at rate 1 (the default for this
// sub-64K address space) bit-for-bit.
func TestEngineWorkloadsAgree(t *testing.T) {
	w, err := newMatmul(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	exact := w.exact()
	sampled := w.sampled()
	if !reflect.DeepEqual(exact.Misses, sampled.Misses) || exact.Distinct != sampled.Distinct {
		t.Fatalf("sampled at rate 1 diverges from exact:\nexact   %+v\nsampled %+v", exact, sampled)
	}
	an, err := w.analytic()
	if err != nil {
		t.Fatal(err)
	}
	if an.Accesses != exact.Accesses || an.Distinct != exact.Distinct {
		t.Fatalf("analytic totals %d/%d, exact %d/%d", an.Accesses, an.Distinct, exact.Accesses, exact.Distinct)
	}
}

// TestSweepPathsAgree checks the sweep corpus at two pool widths, and each
// case's simulated side against the per-access reference simulator.
func TestSweepPathsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep corpus is slow")
	}
	cases, err := sweepCases()
	if err != nil {
		t.Fatal(err)
	}
	cases = cases[:3]
	seq, err := validate.RunSweep(cases, simWatches, validate.SweepOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := validate.RunSweep(cases, simWatches, validate.SweepOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, got) {
		t.Fatal("sweep diverges across pool widths")
	}
	for i, c := range cases {
		w, err := newMatmul(c.Env["N"], c.Env["TI"])
		if err != nil {
			t.Fatal(err)
		}
		ref := cachesim.NewReferenceSim(w.prog.Size, len(w.prog.Sites), simWatches)
		w.prog.RunScalar(ref.Access)
		res := ref.Results()
		for wi, cmp := range got[i] {
			if cmp.SimulatedTotal != res.Misses[wi] || cmp.Accesses != res.Accesses {
				t.Errorf("case %d at %d elems: sweep simulated %d misses / %d accesses, reference %d / %d",
					i, cmp.CacheElems, cmp.SimulatedTotal, cmp.Accesses, res.Misses[wi], res.Accesses)
			}
		}
	}
}

// TestAssocAccuracyAgreesWithModels: the assoc rows' comparisons carry the
// same predictions the model entry points produce directly, so the
// accuracy rows are the model's.
func TestAssocAccuracyAgreesWithModels(t *testing.T) {
	w, err := newMatmul(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	cmps, err := validate.RunAssoc(w.a, w.env, assocCapacities, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) != len(assocCapacities) {
		t.Fatalf("%d comparisons for %d capacities", len(cmps), len(assocCapacities))
	}
	for _, c := range cmps {
		fa, err := w.predict(core.CacheConfig{CapacityElems: c.CacheElems})
		if err != nil {
			t.Fatal(err)
		}
		conf, err := w.predict(core.CacheConfig{CapacityElems: c.CacheElems, Ways: 1, LineElems: 1})
		if err != nil {
			t.Fatal(err)
		}
		if fa != c.PredictedFA || conf != c.PredictedConflict {
			t.Errorf("cap %d: direct predictions %d/%d, comparison carries %d/%d",
				c.CacheElems, fa, conf, c.PredictedFA, c.PredictedConflict)
		}
	}
}
