// Package cost is the pluggable cost-model subsystem behind
// engine.DeriveCosts: a registry of named models, each producing the
// schedule.StepCosts tuple for one (cluster, model, plan, params) point.
//
// The single-producer invariant the search relies on lives here: the
// simulator and every analytic bound (the tier-1 StepFloor, the tier-2
// exact multi-stream replay) price plans with the same Derive call, so
// whatever model is selected, the bounds stay admissible — and exact where
// they claim exactness — by construction. A cost model may therefore change
// *what* an operation costs, but the cost must remain a per-op constant of
// the (cluster, model, plan, params) point: no per-event state, no clock
// reads, no randomness (the package is in the detmap/detsource lint scope).
//
// Three models ship registered:
//
//   - "paper": the Appendix A formulas exactly as engine.DeriveCosts
//     hard-coded them before this package existed. The default; golden
//     tables are byte-identical under it.
//   - "calibrated": the same formulas with the calibration constants —
//     kernel-efficiency curve, link efficiencies and latencies, kernel
//     launch overhead — replaced by a Profile fit from measured per-op
//     timing samples (cost.Fit, cmd/bfpp-calibrate). The registered fixed
//     name uses DefaultProfile; the "calibrated:<profile.json>" pattern
//     loads a fitted profile from disk.
//   - "contended": shared-NIC contention for the ethernet cluster class:
//     the effective inter-node bandwidth is divided by the number of
//     concurrent transfer streams the plan shape puts on a node's NIC.
//     Static — derived from the plan, not from simulated time — so it stays
//     a per-op cost and replay exactness holds.
//
// Selection rides on Params.Model (nil means "paper"), so the existing
// engine/search/analytic plumbing — which already threads *engine.Params
// everywhere — carries the model choice end to end without new signatures.
package cost

import (
	"bfpp/internal/core"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
)

// Params are the engine's calibration constants plus the cost-model
// selection. Zero value means "use DefaultParams()"; the fields are
// exposed so ablation benchmarks can vary them.
type Params struct {
	// KernelLaunch is the fixed per-compute-op overhead (kernel launches,
	// framework dispatch) in seconds.
	KernelLaunch float64
	// BlockingPPBase and BlockingPPPerRank model the per-message stall a
	// non-overlapping implementation pays on the compute stream for each
	// pipeline-parallel transfer: stall = Base + PerRank*N_PP. Appendix D.2
	// documents multi-millisecond allocator/synchronization stalls that
	// grow with the number of parallel devices; Section 5.2 measures the
	// resulting overhead at >=40% for N_loop = 8 on the 52B model.
	BlockingPPBase, BlockingPPPerRank float64
	// TPLinkEfficiency is the achievable fraction of the intra-node link
	// bandwidth for tensor-parallel all-reduces (small messages, ring
	// overheads, contention).
	TPLinkEfficiency float64
	// DPLinkEfficiency likewise for data-parallel collectives (large,
	// bandwidth-friendly messages).
	DPLinkEfficiency float64
	// OptimizerBytesPerParam is the memory traffic per parameter of the
	// optimizer step (read/update fp32 state and momenta).
	OptimizerBytesPerParam float64
	// Model selects the cost model pricing these constants into per-op
	// durations; nil selects the default "paper" model. The field travels
	// with the rest of the params through engine.Options, search.Options
	// and the analytic bounds, which is what keeps the simulator and every
	// bound on the same producer whatever model a request selects.
	Model Model
}

// DefaultParams returns the calibrated engine constants (and the default
// paper cost model, as the nil Model).
func DefaultParams() Params {
	return Params{
		KernelLaunch:           30e-6,
		BlockingPPBase:         0.25e-3,
		BlockingPPPerRank:      0.4375e-3,
		TPLinkEfficiency:       0.45,
		DPLinkEfficiency:       0.90,
		OptimizerBytesPerParam: 32,
	}
}

// Model prices (cluster, model, plan, params) points. Implementations must
// be pure functions of their inputs (plus immutable construction-time
// state such as a loaded Profile): the same point must always produce the
// same StepCosts, or the search's replay bounds and resume/journal byte
// identities break.
type Model interface {
	// Name is the registry spelling ("paper").
	Name() string
	// Fingerprint is a canonical content string for result-cache keys: two
	// models with the same fingerprint must price every point identically
	// (a calibrated model's fingerprint covers its profile values, so two
	// profiles at the same path but different content never share a cache
	// entry).
	Fingerprint() string
	// Derive produces the per-operation durations the simulator charges
	// the configuration. par carries the calibration constants; par.Model
	// is ignored (the receiver is the selected model).
	Derive(c hw.Cluster, m model.Transformer, p core.Plan, par Params) schedule.StepCosts
}

// Derive prices one point under the params' selected model — the single
// entry point engine.DeriveCosts delegates to. A nil Params.Model selects
// the default paper model, which keeps the pre-registry behavior (and its
// golden bytes) for every caller that never touches the field.
func Derive(c hw.Cluster, m model.Transformer, p core.Plan, par Params) schedule.StepCosts {
	mdl := par.Model
	if mdl == nil {
		mdl = Default()
	}
	return mdl.Derive(c, m, p, par)
}

// Fingerprint resolves the params' selected model to its cache-key
// fingerprint ("paper" for the nil default).
func Fingerprint(par Params) string {
	if par.Model == nil {
		return Default().Fingerprint()
	}
	return par.Model.Fingerprint()
}
