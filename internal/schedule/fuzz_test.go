package schedule

import (
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/model"
)

// FuzzValidatedPlanGenerates pins the property that lets engine.Precheck
// skip generation: every plan Plan.Validate accepts has a registered
// generator whose programs generate and pass Check. The search's pruned
// candidates are never generated, so a plan that broke this rule would
// hide its error behind the pruning where the unpruned search reports it.
//
// The method is drawn from core.Methods(). The model is the 52B one with
// a fuzzed layer count (1 to 256), because Validate reads the model only
// through the stage divisibility, so every registered model's shapes are
// in reach, the 1T model's 128 layers included. Sizes reach the search's
// grids, for every method: PP up to 128 and NumMicro up to 512, as the
// Figure-7 and Appendix E sweeps enumerate. Sharding, the sequence dial
// and the overlap flags are taken raw. The seed corpus under
// testdata/fuzz holds a valid plan of every registered method and a few
// at grid sizes.
func FuzzValidatedPlanGenerates(f *testing.F) {
	f.Fuzz(func(t *testing.T, method, layers, dp, pp, tp, microBatch uint8, numMicro uint16, loops uint8, sharding, sequence int8, overlapDP, overlapPP bool) {
		m := model.Model52B()
		m.Layers = 1 + int(layers)
		methods := core.Methods()
		p := core.Plan{
			Method: methods[int(method)%len(methods)],
			DP:     1 + int(dp%8), PP: 1 + int(pp%128), TP: 1 + int(tp%8),
			MicroBatch: 1 + int(microBatch%4), NumMicro: 1 + int(numMicro%512),
			Loops:    1 + int(loops%128),
			Sharding: core.Sharding(sharding), Sequence: int(sequence),
			OverlapDP: overlapDP, OverlapPP: overlapPP,
		}
		if p.Validate(m) != nil {
			return
		}
		if _, ok := Lookup(p.Method); !ok {
			t.Fatalf("%v: Validate accepts a method with no registered generator", p)
		}
		s, err := Generate(p)
		if err != nil {
			t.Fatalf("Generate(%v): %v", p, err)
		}
		if err := Check(s); err != nil {
			t.Fatalf("Check(%v): %v", p, err)
		}
	})
}
