package main

import "fmt"

// gate is one regression bound over a layer's rows: row num's value must
// be at least min × row den's value, or strictly above it when strict.
type gate struct {
	layer, num, den string
	min             float64
	strict          bool
}

// gates are the tripwires -smoke enforces. The bounds sit far under the
// measured gaps (analytic ~10⁶× exact, batch-64 ~30× predict-hot, 4
// replicas ~7× one), so they trip on a real regression — the analytic
// engine walking a trace, batches no longer amortizing, the ring not
// spreading keys, a structural search axis gone dead — not on noise.
func gates() []gate {
	gs := []gate{
		{layer: "sim", num: "exact-n512", den: "analytic-n512", min: 100},
		{layer: "serve", num: "batch-64", den: "predict-hot", min: 3},
		{layer: "cluster", num: "replicas-4", den: "replicas-1", min: 2.5},
	}
	for _, wl := range optWorkloads {
		gs = append(gs, gate{layer: "opt", num: wl.name + ".tile_only_misses", den: wl.name + ".joint_misses", min: 1, strict: true})
	}
	return gs
}

func gatesOf(layer string) []gate {
	var out []gate
	for _, g := range gates() {
		if g.layer == layer {
			out = append(out, g)
		}
	}
	return out
}

func (g gate) String() string {
	op := "≥"
	if g.strict {
		op = ">"
	}
	return fmt.Sprintf("%s: %s %s %g × %s", g.layer, g.num, op, g.min, g.den)
}

// check evaluates the gate over measured rows. A gate fails when its
// layer has a nonzero failures row, when a row it reads is missing, or
// when the bound does not hold.
func (g gate) check(rows []Row) (ratio float64, err error) {
	var layerRows []Row
	for _, r := range rows {
		if r.Layer == g.layer {
			layerRows = append(layerRows, r)
		}
	}
	if err := failures(layerRows); err != nil {
		return 0, fmt.Errorf("gate %s: %w", g, err)
	}
	vals := map[string]float64{}
	for _, r := range layerRows {
		vals[r.Name] = r.Value
	}
	num, ok := vals[g.num]
	den, ok2 := vals[g.den]
	if !ok || !ok2 {
		return 0, fmt.Errorf("gate %s: rows not measured", g)
	}
	ratio = num / den
	if bound := g.min * den; num > bound || !g.strict && num == bound {
		return ratio, nil
	}
	return ratio, fmt.Errorf("gate %s failed: %g vs %g (%.3g×)", g, num, den, ratio)
}

// failures reports the first nonzero failures row.
func failures(rows []Row) error {
	for _, r := range rows {
		if r.Unit == failuresUnit && r.Value != 0 {
			return fmt.Errorf("%s/%s: %g responses failed verification", r.Layer, r.Name, r.Value)
		}
	}
	return nil
}
