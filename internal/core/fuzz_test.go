package core_test

import (
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/model"
	_ "bfpp/internal/schedule" // registers the extension methods, so all nine decode
)

// FuzzPlanValidate decodes arbitrary bytes with core.DecodePlan and
// validates every decoded plan against every registered model. Validate
// must never panic, and a plan it accepts must have at least one GPU and
// at most core.MaxComputeOps compute ops, counted in float64 so a wrapped
// int product cannot hide. The seed corpus under testdata/fuzz holds a
// valid plan of every registered method and three oversized ones: a stage
// count and a GPU count that wrap around int, and 2^47 compute ops.
func FuzzPlanValidate(f *testing.F) {
	var models []model.Transformer
	for _, name := range model.Registry.FixedNames() {
		m, err := model.Registry.Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		models = append(models, m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := core.DecodePlan(data)
		if err != nil {
			return
		}
		for _, m := range models {
			if p.Validate(m) != nil {
				continue
			}
			if p.GPUs() < 1 {
				t.Fatalf("%s: Validate accepts %v with %d GPUs", m.Name, p, p.GPUs())
			}
			stages := float64(p.Loops)
			if p.Method.Pipelined() {
				stages *= float64(p.PP)
			}
			if ops := 2 * stages * float64(p.NumMicro); ops > core.MaxComputeOps {
				t.Fatalf("%s: Validate accepts %v with %g compute ops", m.Name, p, ops)
			}
		}
	})
}
