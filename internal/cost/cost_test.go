package cost

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/hw"
	"bfpp/internal/model"
)

// testPlans spans the pricing branches: intra-node pipeline transfer,
// cross-node transfer, in-node and cross-node DP rings, sharded and
// unsharded collectives, TP on and off.
func testPlans() []core.Plan {
	return []core.Plan{
		{Method: core.BreadthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 2, NumMicro: 8, Loops: 4},
		{Method: core.BreadthFirst, DP: 4, PP: 8, TP: 4, MicroBatch: 1, NumMicro: 8, Loops: 2, Sharding: core.DPFS, OverlapDP: true, OverlapPP: true},
		{Method: core.DepthFirst, DP: 8, PP: 2, TP: 2, MicroBatch: 2, NumMicro: 4, Loops: 8, Sharding: core.DPPS},
		{Method: core.OneFOneB, DP: 2, PP: 8, TP: 2, MicroBatch: 2, NumMicro: 12, Loops: 1},
		{Method: core.NoPipelineBF, DP: 4, PP: 1, TP: 2, MicroBatch: 2, NumMicro: 4, Loops: 16, Sharding: core.DPFS},
	}
}

// TestRegistryLookup asserts every built-in spelling, in any case, builds
// a model equal to its constructor's, and that an unknown spelling lists
// the registered ones.
func TestRegistryLookup(t *testing.T) {
	for name, want := range map[string]Model{
		"paper": paperModel{}, "PAPER": paperModel{},
		"calibrated": Calibrated(DefaultProfile()), "Calibrated": Calibrated(DefaultProfile()),
		"contended": contendedModel{}, "CONTENDED": contendedModel{},
	} {
		m, err := Registry.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if m != want || m.Name() != strings.ToLower(name) {
			t.Errorf("Lookup(%q) = %#v (%q), want %#v", name, m, m.Name(), want)
		}
	}
	if got := Registry.FixedNames(); !slices.Equal(got, []string{"paper", "calibrated", "contended"}) {
		t.Errorf("FixedNames() = %v, want [paper calibrated contended]", got)
	}
	if _, err := Registry.Lookup("bogus"); err == nil || !strings.Contains(err.Error(), "calibrated:<profile.json>") {
		t.Errorf("unknown-model error should list registered spellings, got %v", err)
	}
}

// writeProfile encodes p into a fresh file and returns its path.
func writeProfile(t *testing.T, p Profile) string {
	t.Helper()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCalibratedPattern(t *testing.T) {
	// A matched pattern with a broken payload is a load error, never
	// "unknown".
	if _, err := Registry.Lookup("calibrated:/does/not/exist.json"); err == nil || strings.Contains(err.Error(), "unknown") {
		t.Errorf("missing profile should be a load error, got %v", err)
	}
	path := writeProfile(t, DefaultProfile())
	for _, spelling := range []string{"calibrated:" + path, "CALIBRATED:" + path} {
		m, err := Registry.Lookup(spelling)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", spelling, err)
		}
		// The same values as the fixed name's default profile build an
		// equal model, so they share one fingerprint.
		if want := Calibrated(DefaultProfile()); m != want || m.Fingerprint() != want.Fingerprint() {
			t.Errorf("Lookup(%s) = %#v, want %#v", spelling, m, want)
		}
	}
	// An unknown field must fail loudly, not silently zero a constant.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"kernel_lunch": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Registry.Lookup("calibrated:" + bad); err == nil {
		t.Error("unknown profile field should fail to load")
	}
}

// TestDeriveDefaultsToPaper pins the zero-churn guarantee: a nil Model
// prices identically to an explicit "paper" lookup, term by term.
func TestDeriveDefaultsToPaper(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	paper, err := Registry.Lookup("paper")
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultParams()
	for _, p := range testPlans() {
		got := Derive(c, m, p, par)
		want := paper.Derive(c, m, p, par)
		if got != want {
			t.Errorf("nil-model Derive %+v != paper %+v for %v", got, want, p)
		}
	}
	if Fingerprint(par) != "paper" {
		t.Errorf("nil-model fingerprint = %q", Fingerprint(par))
	}
}

// TestDefaultProfileReproducesPaper pins the calibrated model's baseline:
// the default profile is the paper constants, so on the paper cluster the
// calibrated model prices every point identically to the paper model.
func TestDefaultProfileReproducesPaper(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	cal := Calibrated(DefaultProfile())
	par := DefaultParams()
	for _, p := range testPlans() {
		got := cal.Derive(c, m, p, par)
		want := paperCosts(c, m, p, par)
		if got != want {
			t.Errorf("calibrated(default) %+v != paper %+v for %v", got, want, p)
		}
	}
}

// TestContendedModel pins the contention semantics: plans whose transfers
// stay on NVLink price identically to the paper model; plans that put
// several streams on a node NIC pay strictly more on the inter-node terms
// and exactly the same on everything else.
func TestContendedModel(t *testing.T) {
	c := hw.PaperClusterEthernet()
	m := model.Model6p6B()
	cont, err := Registry.Lookup("contended")
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultParams()

	inNode := core.Plan{Method: core.BreadthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 2, NumMicro: 8, Loops: 4}
	if got, want := cont.Derive(c, m, inNode, par), paperCosts(c, m, inNode, par); got != want {
		t.Errorf("single-stream plan: contended %+v != paper %+v", got, want)
	}

	// PP boundary crosses nodes AND the DP ring spans nodes: duplex
	// pipeline streams plus g resident ring members share the NIC.
	crossed := core.Plan{Method: core.BreadthFirst, DP: 4, PP: 8, TP: 4, MicroBatch: 1, NumMicro: 8, Loops: 2, Sharding: core.DPFS}
	if n := nicStreams(c, crossed); n <= 1 {
		t.Fatalf("expected contention for %v, nicStreams = %v", crossed, n)
	}
	got := cont.Derive(c, m, crossed, par)
	want := paperCosts(c, m, crossed, par)
	if got.Transfer <= want.Transfer {
		t.Errorf("contended Transfer %v not above paper %v", got.Transfer, want.Transfer)
	}
	if got.Reduce <= want.Reduce || got.Restore <= want.Restore {
		t.Errorf("contended DP terms (%v, %v) not above paper (%v, %v)",
			got.Reduce, got.Restore, want.Reduce, want.Restore)
	}
	if got.Fwd != want.Fwd || got.Bwd != want.Bwd || got.Opt != want.Opt || got.PPStall != want.PPStall {
		t.Errorf("contention leaked into non-NIC terms: %+v vs %+v", got, want)
	}
}

// syntheticSamples generates noiseless samples from a known profile, the
// round-trip fixture for Fit.
func syntheticSamples(prof Profile) []Sample {
	const peak = 100e12
	const rawIntra = 250e9
	const rawInter = 20e9
	var out []Sample
	for _, r := range []float64{16, 32, 64, 128, 256, 512, 1024, 4096} {
		for _, w := range []float64{32, 64, 128, 256, 1024} {
			flop := 2 * r * w * w
			eff := prof.Kernel.Efficiency(r, w)
			out = append(out, Sample{
				Op: "compute", Rows: r, Width: w, Flop: flop, PeakFlops: peak,
				Seconds: flop/(peak*eff) + prof.KernelLaunch,
			})
		}
	}
	for _, b := range []float64{1 << 14, 1 << 17, 1 << 20, 1 << 24} {
		out = append(out, Sample{Op: "intra", Bytes: b, Bandwidth: rawIntra,
			Seconds: prof.IntraNodeLatency + b/(rawIntra*prof.TPLinkEfficiency)})
		out = append(out, Sample{Op: "inter", Bytes: b, Bandwidth: rawInter,
			Seconds: prof.InterNodeLatency + b/(rawInter*prof.DPLinkEfficiency)})
	}
	return out
}

// TestFitRoundTrip is the recovery property: fitting samples generated from
// a known profile recovers that profile within tolerance.
func TestFitRoundTrip(t *testing.T) {
	want := Profile{
		Kernel:           hw.KernelModel{MaxEff: 0.62, HalfRows: 96, HalfWidth: 192},
		KernelLaunch:     30e-6,
		TPLinkEfficiency: 0.45,
		DPLinkEfficiency: 0.90,
		IntraNodeLatency: 3e-6,
		InterNodeLatency: 5e-6,
	}
	got, err := Fit(syntheticSamples(want))
	if err != nil {
		t.Fatal(err)
	}
	relClose := func(name string, g, w, tol float64) {
		t.Helper()
		if math.Abs(g-w) > tol*math.Abs(w) {
			t.Errorf("%s = %v, want %v (tol %v%%)", name, g, w, 100*tol)
		}
	}
	relClose("MaxEff", got.Kernel.MaxEff, want.Kernel.MaxEff, 0.02)
	relClose("HalfRows", got.Kernel.HalfRows, want.Kernel.HalfRows, 0.05)
	relClose("HalfWidth", got.Kernel.HalfWidth, want.Kernel.HalfWidth, 0.05)
	relClose("KernelLaunch", got.KernelLaunch, want.KernelLaunch, 0.02)
	relClose("TPLinkEfficiency", got.TPLinkEfficiency, want.TPLinkEfficiency, 1e-6)
	relClose("DPLinkEfficiency", got.DPLinkEfficiency, want.DPLinkEfficiency, 1e-6)
	relClose("IntraNodeLatency", got.IntraNodeLatency, want.IntraNodeLatency, 1e-6)
	relClose("InterNodeLatency", got.InterNodeLatency, want.InterNodeLatency, 1e-6)
}

// TestFitDeterministic is the byte-identity half of the property: the same
// samples always fit to the same profile bytes (no clock, no randomness,
// fixed refinement budget), which the CI calibrate smoke pins end to end.
func TestFitDeterministic(t *testing.T) {
	samples := syntheticSamples(DefaultProfile())
	a, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("two fits of the same samples differ:\n%s\n%s", ja, jb)
	}
}

// TestFitPartialCategories pins the fall-back: link-only samples fit the
// link constants and keep the default kernel curve.
func TestFitPartialCategories(t *testing.T) {
	prof := DefaultProfile()
	var links []Sample
	for _, s := range syntheticSamples(prof) {
		if s.Op != "compute" {
			links = append(links, s)
		}
	}
	got, err := Fit(links)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kernel != prof.Kernel {
		t.Errorf("link-only fit changed the kernel curve: %+v", got.Kernel)
	}
	if math.Abs(got.TPLinkEfficiency-prof.TPLinkEfficiency) > 1e-9 {
		t.Errorf("TPLinkEfficiency = %v, want %v", got.TPLinkEfficiency, prof.TPLinkEfficiency)
	}
	if _, err := Fit(nil); err == nil {
		t.Error("empty sample set should not fit")
	}
	if _, err := Fit([]Sample{{Op: "warp", Seconds: 1}}); err == nil {
		t.Error("unknown op should not fit")
	}
	// An ideal transfer time that overflows to +Inf drives the link fit
	// to NaN; it must be Fit's error, not a NaN profile.
	overflow := []Sample{
		{Op: "inter", Bytes: 1e308, Bandwidth: 1e-300, Seconds: 1},
		{Op: "inter", Bytes: 1000, Bandwidth: 1e9, Seconds: 2},
	}
	if got, err := Fit(overflow); err == nil || !strings.HasPrefix(err.Error(), "fit: ") {
		t.Errorf("overflowing link samples: Fit = %+v, %v; want a fit error", got, err)
	}
}

// TestProfileValidateRejectsNonFinite pins that NaN or +Inf in any field
// invalidates a profile, so the floor, the replay and the simulator never
// price with one.
func TestProfileValidateRejectsNonFinite(t *testing.T) {
	if err := DefaultProfile().Validate(); err != nil {
		t.Fatalf("default profile invalid: %v", err)
	}
	fields := []struct {
		name string
		at   func(*Profile) *float64
	}{
		{"MaxEff", func(p *Profile) *float64 { return &p.Kernel.MaxEff }},
		{"HalfRows", func(p *Profile) *float64 { return &p.Kernel.HalfRows }},
		{"HalfWidth", func(p *Profile) *float64 { return &p.Kernel.HalfWidth }},
		{"KernelLaunch", func(p *Profile) *float64 { return &p.KernelLaunch }},
		{"TPLinkEfficiency", func(p *Profile) *float64 { return &p.TPLinkEfficiency }},
		{"DPLinkEfficiency", func(p *Profile) *float64 { return &p.DPLinkEfficiency }},
		{"IntraNodeLatency", func(p *Profile) *float64 { return &p.IntraNodeLatency }},
		{"InterNodeLatency", func(p *Profile) *float64 { return &p.InterNodeLatency }},
	}
	for _, f := range fields {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			p := DefaultProfile()
			*f.at(&p) = bad
			if err := p.Validate(); err == nil {
				t.Errorf("%s = %v passed validation", f.name, bad)
			}
		}
	}
}
