package cost

import "bfpp/internal/registry"

// Registry resolves the cost-model spellings every consumer accepts (the
// commands' -costmodel flags, the service requests' "cost_model" field):
// fixed names ("paper", "calibrated", "contended") first, then patterns
// ("calibrated:<profile.json>") in registration order. A matched pattern
// whose payload fails to load is an error, not an unknown name.
var Registry = registry.New[Model]("cost model")

// Default returns the default cost model — the paper formulas — selected
// whenever Params.Model is nil.
func Default() Model { return paperModel{} }

func init() {
	// The built-in models register like any extension would.
	Registry.Register("paper", func() Model { return paperModel{} })
	Registry.Register("calibrated", func() Model { return Calibrated(DefaultProfile()) })
	Registry.Register("contended", func() Model { return contendedModel{} })
	Registry.RegisterPattern("calibrated:<profile.json>", parseCalibratedPattern)
}
