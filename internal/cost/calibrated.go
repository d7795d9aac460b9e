package cost

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"bfpp/internal/core"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
)

// Profile holds the calibration constants the "calibrated" cost model
// substitutes into the paper formulas: the kernel-efficiency curve, the
// per-op launch overhead, the achievable link-efficiency fractions and the
// link latencies. Everything else — formula structure, bandwidth figures,
// topology — still comes from the selected cluster, so a profile fitted on
// one node count transfers to another.
type Profile struct {
	// Kernel is the fitted kernel-efficiency saturation curve replacing the
	// cluster GPU's KernelEff.
	Kernel hw.KernelModel `json:"kernel"`
	// KernelLaunch replaces Params.KernelLaunch (seconds per compute op).
	KernelLaunch float64 `json:"kernel_launch"`
	// TPLinkEfficiency and DPLinkEfficiency replace the corresponding
	// Params fractions.
	TPLinkEfficiency float64 `json:"tp_link_efficiency"`
	DPLinkEfficiency float64 `json:"dp_link_efficiency"`
	// IntraNodeLatency and InterNodeLatency replace the cluster links'
	// Latency terms (seconds).
	IntraNodeLatency float64 `json:"intra_node_latency"`
	InterNodeLatency float64 `json:"inter_node_latency"`
}

// DefaultProfile returns the profile that reproduces the paper model on the
// V100 clusters: the V100 kernel curve and the engine's default calibration
// constants with NVLink/InfiniBand latencies.
func DefaultProfile() Profile {
	def := DefaultParams()
	return Profile{
		Kernel:           hw.V100().KernelEff,
		KernelLaunch:     def.KernelLaunch,
		TPLinkEfficiency: def.TPLinkEfficiency,
		DPLinkEfficiency: def.DPLinkEfficiency,
		IntraNodeLatency: hw.NVLinkV100().Latency,
		InterNodeLatency: hw.InfiniBandV100().Latency,
	}
}

// Validate reports the first structurally invalid field of the profile:
// the curve and efficiencies must be positive fractions, the half-rows and
// half-width positive and finite, the latencies and the launch overhead
// non-negative and finite. The checks are written so NaN fails them too:
// JSON cannot carry NaN or an infinity, but a fit over overflowing
// samples and library callers can.
func (p Profile) Validate() error {
	switch {
	case !(p.Kernel.MaxEff > 0 && p.Kernel.MaxEff <= 1):
		return fmt.Errorf("kernel max efficiency %v outside (0, 1]", p.Kernel.MaxEff)
	case !(p.Kernel.HalfRows > 0) || math.IsInf(p.Kernel.HalfRows, 1):
		return fmt.Errorf("kernel half-rows %v must be positive and finite", p.Kernel.HalfRows)
	case !(p.Kernel.HalfWidth > 0) || math.IsInf(p.Kernel.HalfWidth, 1):
		return fmt.Errorf("kernel half-width %v must be positive and finite", p.Kernel.HalfWidth)
	case !(p.KernelLaunch >= 0) || math.IsInf(p.KernelLaunch, 1):
		return fmt.Errorf("kernel launch overhead %v must be non-negative and finite", p.KernelLaunch)
	case !(p.TPLinkEfficiency > 0 && p.TPLinkEfficiency <= 1):
		return fmt.Errorf("tp link efficiency %v outside (0, 1]", p.TPLinkEfficiency)
	case !(p.DPLinkEfficiency > 0 && p.DPLinkEfficiency <= 1):
		return fmt.Errorf("dp link efficiency %v outside (0, 1]", p.DPLinkEfficiency)
	case !(p.IntraNodeLatency >= 0) || math.IsInf(p.IntraNodeLatency, 1):
		return fmt.Errorf("intra-node latency %v must be non-negative and finite", p.IntraNodeLatency)
	case !(p.InterNodeLatency >= 0) || math.IsInf(p.InterNodeLatency, 1):
		return fmt.Errorf("inter-node latency %v must be non-negative and finite", p.InterNodeLatency)
	}
	return nil
}

// maxProfileBytes caps what LoadProfile reads: a profile encodes to about
// 200 bytes, and a server resolves paths its clients name.
const maxProfileBytes = 64 << 10

// LoadProfile reads and validates a fitted profile from a JSON file written
// by bfpp-calibrate (or by hand). Unknown fields are an error: a typoed key
// silently falling back to a zero value would change pinned bytes. Only a
// regular file of at most 64 KiB loads, so a FIFO or a device fails at
// once instead of blocking the caller or filling its memory.
func LoadProfile(path string) (Profile, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return Profile{}, fmt.Errorf("load profile: %w", err)
	}
	if !fi.Mode().IsRegular() {
		return Profile{}, fmt.Errorf("load profile %s: not a regular file", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return Profile{}, fmt.Errorf("load profile: %w", err)
	}
	defer f.Close()
	raw, err := io.ReadAll(io.LimitReader(f, maxProfileBytes+1))
	if err != nil {
		return Profile{}, fmt.Errorf("load profile: %w", err)
	}
	if len(raw) > maxProfileBytes {
		return Profile{}, fmt.Errorf("load profile %s: larger than %d bytes", path, maxProfileBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var p Profile
	if err := dec.Decode(&p); err != nil {
		return Profile{}, fmt.Errorf("load profile %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return Profile{}, fmt.Errorf("load profile %s: %w", path, err)
	}
	return p, nil
}

// calibratedModel prices points with the paper formulas over a measured
// Profile instead of the paper constants.
type calibratedModel struct {
	profile Profile
}

// Calibrated returns the calibrated cost model over the given profile.
func Calibrated(p Profile) Model { return calibratedModel{profile: p} }

func (calibratedModel) Name() string { return "calibrated" }

// Fingerprint covers the profile content, not its source path: two profiles
// with the same values share cache entries, two different fits at the same
// path never do.
func (cm calibratedModel) Fingerprint() string {
	return fmt.Sprintf("calibrated{%+v}", cm.profile)
}

func (cm calibratedModel) Derive(c hw.Cluster, m model.Transformer, p core.Plan, par Params) schedule.StepCosts {
	// Substitute the profile into value copies of the cluster and params,
	// then price with the shared paper formula body — the calibrated model
	// can only differ from the paper in its constants.
	c.GPU.KernelEff = cm.profile.Kernel
	c.IntraNode.Latency = cm.profile.IntraNodeLatency
	c.InterNode.Latency = cm.profile.InterNodeLatency
	par.KernelLaunch = cm.profile.KernelLaunch
	par.TPLinkEfficiency = cm.profile.TPLinkEfficiency
	par.DPLinkEfficiency = cm.profile.DPLinkEfficiency
	return paperCosts(c, m, p, par)
}

// parseCalibratedPattern resolves the "calibrated:<profile.json>" spelling:
// a calibrated model with the profile loaded from the given path. A matched
// spelling whose profile fails to load is an error, not an unknown model.
func parseCalibratedPattern(arg string) (Model, bool, error) {
	const prefix = "calibrated:"
	if !strings.HasPrefix(strings.ToLower(arg), prefix) {
		return nil, false, nil
	}
	path := arg[len(prefix):]
	if path == "" {
		return nil, true, fmt.Errorf("calibrated: missing profile path")
	}
	p, err := LoadProfile(path)
	if err != nil {
		return nil, true, err
	}
	return Calibrated(p), true, nil
}

// Sample is one measured per-op timing point, as emitted by bfpp-calibrate.
// Op selects what the sample constrains:
//
//   - "compute": a GEMM-shaped kernel of Flop floating-point operations over
//     a (Rows x Width) operand on a device with PeakFlops peak throughput,
//     taking Seconds wall time. Constrains the kernel curve and the launch
//     overhead via Seconds = Flop/(PeakFlops*Eff(Rows, Width)) + KernelLaunch.
//   - "intra": a Bytes-sized transfer over an intra-node link of raw
//     Bandwidth. Constrains TPLinkEfficiency and IntraNodeLatency via
//     Seconds = Latency + Bytes/(Bandwidth*Efficiency).
//   - "inter": likewise over an inter-node link, constraining
//     DPLinkEfficiency and InterNodeLatency.
type Sample struct {
	Op        string  `json:"op"`
	Rows      float64 `json:"rows,omitempty"`
	Width     float64 `json:"width,omitempty"`
	Flop      float64 `json:"flop,omitempty"`
	PeakFlops float64 `json:"peak_flops,omitempty"`
	Bytes     float64 `json:"bytes,omitempty"`
	Bandwidth float64 `json:"bandwidth,omitempty"`
	Seconds   float64 `json:"seconds"`
}

// Fit recovers a Profile from measured samples: a closed-form linear
// least-squares solve for every parameter the model is linear in, and a
// fixed-budget grid-refinement coordinate search (log space) over the two
// kernel-curve half-saturation constants it is not. The procedure is a pure
// function of the sample values — no clock, no randomness, a fixed number
// of refinement rounds — so the same samples always fit to the same profile
// bytes, which is what lets CI pin the calibrate smoke.
//
// Each sample category is optional: a category with too few samples to
// constrain its parameters (fewer than three compute or two link samples)
// keeps the DefaultProfile values, so a link-only calibration run still
// yields a usable profile. At least one usable category is required.
func Fit(samples []Sample) (Profile, error) {
	prof := DefaultProfile()
	var compute, intra, inter []Sample
	for i, s := range samples {
		switch s.Op {
		case "compute":
			if s.Rows <= 0 || s.Width <= 0 || s.Flop <= 0 || s.PeakFlops <= 0 || s.Seconds <= 0 {
				return Profile{}, fmt.Errorf("fit: compute sample %d has non-positive fields", i)
			}
			compute = append(compute, s)
		case "intra", "inter":
			if s.Bytes <= 0 || s.Bandwidth <= 0 || s.Seconds <= 0 {
				return Profile{}, fmt.Errorf("fit: %s sample %d has non-positive fields", s.Op, i)
			}
			if s.Op == "intra" {
				intra = append(intra, s)
			} else {
				inter = append(inter, s)
			}
		default:
			return Profile{}, fmt.Errorf("fit: sample %d has unknown op %q", i, s.Op)
		}
	}
	fitted := false
	if len(compute) >= 3 {
		kernel, launch, err := fitCompute(compute)
		if err != nil {
			return Profile{}, err
		}
		prof.Kernel, prof.KernelLaunch = kernel, launch
		fitted = true
	}
	if len(intra) >= 2 {
		eff, lat, err := fitLink("intra", intra)
		if err != nil {
			return Profile{}, err
		}
		prof.TPLinkEfficiency, prof.IntraNodeLatency = eff, lat
		fitted = true
	}
	if len(inter) >= 2 {
		eff, lat, err := fitLink("inter", inter)
		if err != nil {
			return Profile{}, err
		}
		prof.DPLinkEfficiency, prof.InterNodeLatency = eff, lat
		fitted = true
	}
	if !fitted {
		return Profile{}, fmt.Errorf("fit: not enough samples in any category (need >=3 compute or >=2 link samples)")
	}
	if err := prof.Validate(); err != nil {
		return Profile{}, fmt.Errorf("fit: %w", err)
	}
	return prof, nil
}

// fitLink solves Seconds = Latency + (Bytes/Bandwidth)/Efficiency by plain
// linear least squares on x = Bytes/Bandwidth: the slope is 1/Efficiency,
// the intercept the Latency. Closed form — no iteration needed.
func fitLink(kind string, samples []Sample) (eff, lat float64, err error) {
	n := float64(len(samples))
	var sumX, sumY float64
	for _, s := range samples {
		sumX += s.Bytes / s.Bandwidth
		sumY += s.Seconds
	}
	meanX, meanY := sumX/n, sumY/n
	var cov, varX float64
	for _, s := range samples {
		dx := s.Bytes/s.Bandwidth - meanX
		cov += dx * (s.Seconds - meanY)
		varX += dx * dx
	}
	if varX == 0 {
		return 0, 0, fmt.Errorf("fit: %s samples all have the same ideal transfer time; vary the message size", kind)
	}
	slope := cov / varX
	if slope <= 0 {
		return 0, 0, fmt.Errorf("fit: %s samples imply a non-positive transfer slope %v", kind, slope)
	}
	eff = 1 / slope
	if eff > 1 {
		// Measured faster than the raw link figure: clamp to the physical
		// ceiling rather than emit an invalid profile.
		eff = 1
	}
	lat = meanY - slope*meanX
	if lat < 0 {
		lat = 0
	}
	return eff, lat, nil
}

// fitCompute fits Seconds = Flop/(PeakFlops*Eff(Rows, Width)) + KernelLaunch
// with Eff the two-parameter saturation curve MaxEff * r/(r+HR) * w/(w+HW).
// For fixed (HR, HW) the model is linear in (1/MaxEff, KernelLaunch) via
// u = Flop/(PeakFlops * r/(r+HR) * w/(w+HW)), so the inner solve is exact;
// the outer search over (HR, HW) is a deterministic grid refinement in log
// space with a fixed round budget.
func fitCompute(samples []Sample) (hw.KernelModel, float64, error) {
	const (
		gridPoints   = 17
		rounds       = 8
		logLo, logHi = 0.0, 6.0 // HR, HW searched over [1, 1e6]
	)
	type solved struct {
		maxEff, launch, sse float64
		ok                  bool
	}
	solve := func(hr, hwHalf float64) solved {
		// Exact 2x2 normal-equation solve for y = a*u + b with
		// a = 1/MaxEff, b = KernelLaunch.
		var suu, su, suy, sy float64
		n := float64(len(samples))
		for _, s := range samples {
			fr := s.Rows / (s.Rows + hr)
			fw := s.Width / (s.Width + hwHalf)
			u := s.Flop / (s.PeakFlops * fr * fw)
			suu += u * u
			su += u
			suy += u * s.Seconds
			sy += s.Seconds
		}
		det := suu*n - su*su
		if det == 0 {
			return solved{}
		}
		a := (suy*n - su*sy) / det
		b := (suu*sy - su*suy) / det
		if a <= 0 {
			return solved{}
		}
		var sse float64
		for _, s := range samples {
			fr := s.Rows / (s.Rows + hr)
			fw := s.Width / (s.Width + hwHalf)
			u := s.Flop / (s.PeakFlops * fr * fw)
			r := a*u + b - s.Seconds
			sse += r * r
		}
		return solved{maxEff: 1 / a, launch: b, sse: sse, ok: true}
	}

	loR, hiR := logLo, logHi
	loW, hiW := logLo, logHi
	var best solved
	bestHR, bestHW := math.NaN(), math.NaN()
	for round := 0; round < rounds; round++ {
		stepR := (hiR - loR) / float64(gridPoints-1)
		stepW := (hiW - loW) / float64(gridPoints-1)
		for i := 0; i < gridPoints; i++ {
			for j := 0; j < gridPoints; j++ {
				hr := math.Pow(10, loR+float64(i)*stepR)
				hwHalf := math.Pow(10, loW+float64(j)*stepW)
				s := solve(hr, hwHalf)
				if s.ok && (!best.ok || s.sse < best.sse) {
					best = s
					bestHR, bestHW = hr, hwHalf
				}
			}
		}
		if !best.ok {
			break
		}
		// Shrink the bracket around the incumbent for the next round.
		cR, cW := math.Log10(bestHR), math.Log10(bestHW)
		spanR, spanW := 2*stepR, 2*stepW
		loR, hiR = cR-spanR, cR+spanR
		loW, hiW = cW-spanW, cW+spanW
	}
	if !best.ok {
		return hw.KernelModel{}, 0, fmt.Errorf("fit: compute samples are degenerate (all one shape?); vary rows and width")
	}
	maxEff := best.maxEff
	if maxEff > 1 {
		maxEff = 1
	}
	launch := best.launch
	if launch < 0 {
		launch = 0
	}
	kernel := hw.KernelModel{MaxEff: maxEff, HalfRows: bestHR, HalfWidth: bestHW}
	return kernel, launch, nil
}
