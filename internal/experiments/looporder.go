package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/validate"
)

// LoopOrderPoint records the model's and the simulator's miss counts for
// one loop order of the untiled matmul — an extension experiment showing
// the model ranks loop permutations correctly (the enabling property for
// using it inside a transforming compiler, the paper's motivation in §1).
type LoopOrderPoint struct {
	Order     string
	Predicted int64
	Simulated int64
}

// RunLoopOrder evaluates all six orders of the untiled i-j-k matmul at
// bound n and cache capacity cacheElems. simulate=false skips the exact
// traces.
func RunLoopOrder(n int64, cacheElems int64, simulate bool) ([]LoopOrderPoint, error) {
	base, err := kernels.Matmul()
	if err != nil {
		return nil, err
	}
	env := expr.Env{"N": n}
	orders := [][]string{
		{"i", "j", "k"}, {"i", "k", "j"}, {"j", "i", "k"},
		{"j", "k", "i"}, {"k", "i", "j"}, {"k", "j", "i"},
	}
	var out []LoopOrderPoint
	for _, ord := range orders {
		nest, err := loopir.PermutePerfect(base, ord)
		if err != nil {
			return nil, err
		}
		a, err := core.Analyze(nest)
		if err != nil {
			return nil, err
		}
		pt := LoopOrderPoint{
			Order:     fmt.Sprintf("%s-%s-%s", ord[0], ord[1], ord[2]),
			Simulated: -1,
		}
		pt.Predicted, err = a.PredictTotalFrameConfig(a.SymTab().FrameOf(env), core.CacheConfig{CapacityElems: cacheElems})
		if err != nil {
			return nil, err
		}
		if simulate {
			cmps, err := validate.Run(a, env, []int64{cacheElems})
			if err != nil {
				return nil, err
			}
			pt.Simulated = cmps[0].SimulatedTotal
		}
		out = append(out, pt)
	}
	return out, nil
}
