package analytic

import (
	"math/rand"
	"testing"

	"bfpp/internal/cost"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/schedule"
)

// boundCostModels returns every registered fixed cost model plus a
// calibrated instance with a deliberately off-default profile, so the
// property below never degenerates into re-checking the paper constants.
func boundCostModels(t *testing.T) map[string]cost.Model {
	t.Helper()
	models := map[string]cost.Model{}
	for _, name := range cost.FixedNames() {
		cm, err := cost.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		models[name] = cm
	}
	perturbed := cost.DefaultProfile()
	perturbed.Kernel = hw.KernelModel{MaxEff: 0.5, HalfRows: 48, HalfWidth: 300}
	perturbed.KernelLaunch *= 4
	perturbed.TPLinkEfficiency = 0.6
	perturbed.DPLinkEfficiency = 0.65
	perturbed.IntraNodeLatency *= 2
	perturbed.InterNodeLatency *= 3
	models["calibrated-perturbed"] = cost.Calibrated(perturbed)
	return models
}

// TestLowerBoundAdmissibleForEveryCostModel is the subsystem's structural
// payoff, stated as a property: because the bounds and the simulator share
// one cost producer (engine.DeriveCosts -> cost.Derive), admissibility and
// replay exactness hold for EVERY registered generator under EVERY
// registered cost model — the per-op tuples change, the argument does not.
// Same contract as TestLowerBoundNeverExceedsSimulation: bound <= simulated
// always, and every method that registers a tier-2 hook must report an
// exact bound that matches the simulation bit for bit.
func TestLowerBoundAdmissibleForEveryCostModel(t *testing.T) {
	c := hw.PaperCluster()
	m := boundModel()
	for name, cm := range boundCostModels(t) {
		t.Run(name, func(t *testing.T) {
			par := engine.Defaults()
			par.Model = cm
			// A fixed per-model seed keeps each subtest deterministic and
			// the drawn plan sets distinct across models.
			rng := rand.New(rand.NewSource(int64(len(name))))
			for _, g := range schedule.Generators() {
				method := g.Method()
				traits := g.Traits()
				tier2 := traits.StepLB != nil || traits.StepLBCached != nil
				checked := 0
				for trial := 0; trial < 400 && checked < 25; trial++ {
					p, ok := randomBoundPlan(rng, method, traits)
					if !ok {
						continue
					}
					lb, exact := LowerBound(c, m, p, &par)
					res, err := engine.SimulateOpts(c, m, p, engine.Options{Params: &par})
					if err != nil {
						t.Fatalf("%v: simulate %v: %v", method, p, err)
					}
					checked++
					if lb <= 0 {
						t.Errorf("%v: non-positive bound %v for %v", method, lb, p)
					}
					if lb > res.BatchTime {
						t.Errorf("%v: bound %v exceeds simulated %v (by %v) for %v",
							method, lb, res.BatchTime, lb-res.BatchTime, p)
					}
					if exact {
						if lb != res.BatchTime {
							t.Errorf("%v: exact bound %v != simulated %v (diff %v) for %v",
								method, lb, res.BatchTime, lb-res.BatchTime, p)
						}
					} else if tier2 {
						t.Errorf("%v: bound not exact for %v under the %s model", method, p, name)
					}
				}
				if checked < 10 {
					t.Errorf("%v: only %d randomized plans checked", method, checked)
				}
			}
		})
	}
}
