// Package figures regenerates every table and figure of the paper's
// evaluation from the simulator, the analytic model, the grid search and
// the SGD noise-scale simulator. Each generator takes a context (the
// sweep-backed ones observe cancellation between candidate simulations)
// and returns the rendered text; WriteAll saves them under a directory.
// A Config carries the per-call scenario knobs — family selection and the
// worker budget — so concurrent callers (e.g. server requests) never share
// process-global state. The benchmark harness (bench_test.go), the
// bfpp-figures command and the service layer all drive these functions,
// and EXPERIMENTS.md records the paper-vs-measured comparison.
package figures

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bfpp/internal/analytic"
	"bfpp/internal/batchsize"
	"bfpp/internal/core"
	"bfpp/internal/cost"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
	"bfpp/internal/search"
	"bfpp/internal/trace"
	"bfpp/internal/tradeoff"
)

// paperBatches52B and paperBatches6p6B are the batch-size grids of
// Figure 7 (sized so every method family has feasible configurations).
var (
	paperBatches52B    = []int{8, 16, 32, 64, 128, 256, 512}
	paperBatchesEthnet = []int{64, 96, 128, 192, 256, 384, 512}
	paperBatches6p6B   = []int{32, 64, 96, 128, 192, 256, 384, 512}
)

// Config carries the per-call knobs of the sweep-backed artifacts. The
// zero value reproduces the paper defaults. It replaces the former
// package-global family selection, so concurrent callers with different
// selections cannot race.
type Config struct {
	// Families selects the method families Figure 1/7/8 and the Table E
	// artifacts sweep; nil means search.Families(), the paper's four
	// (AppendixELarge and ExtensionSchedules default to every registered
	// family instead — the point of those artifacts).
	Families []search.Family
	// Workers bounds the sweeps' worker pools; 0 resolves to GOMAXPROCS.
	// Results are identical at any width.
	Workers int
	// CostModel selects the cost model for the sweep-backed artifacts; nil
	// means the paper model. The direct-simulate artifacts (the schedule
	// diagrams, drawn with DiagramParams' idealized preset) ignore it.
	CostModel cost.Model
}

// fams returns the effective family selection of the paper artifacts.
func (cfg Config) fams() []search.Family {
	if len(cfg.Families) > 0 {
		return cfg.Families
	}
	return search.Families()
}

// allFams returns the effective selection of the extension artifacts,
// which default to every registered family.
func (cfg Config) allFams() []search.Family {
	if len(cfg.Families) > 0 {
		return cfg.Families
	}
	return search.AllFamilies()
}

// searchOptions maps the config onto sweep options.
func (cfg Config) searchOptions() search.Options {
	opt := search.Options{Workers: cfg.Workers}
	if cfg.CostModel != nil {
		par := engine.Defaults()
		par.Model = cfg.CostModel
		opt.Params = &par
	}
	return opt
}

// Figure1 produces the predicted training time and memory summary for the
// 52B model on 4096 V100s (the paper's headline bar chart).
func Figure1(ctx context.Context, cfg Config) (string, error) {
	c := hw.PaperCluster()
	m := model.Model52B()
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: 52B model on 4096 V100 GPUs (Bcrit=%.0f)\n", batchsize.PaperBcrit52B)
	fmt.Fprintf(&b, "%-26s %12s %14s %14s\n", "Method", "time (days)", "cost (GPUd)", "mem min (GiB)")
	results, err := search.SweepAll(ctx, c, m, cfg.fams(), paperBatches52B, cfg.searchOptions())
	if err != nil {
		return "", fmt.Errorf("figure1: %w", err)
	}
	for _, f := range cfg.fams() {
		bests, ok := results[f]
		if !ok {
			continue
		}
		rs := make([]engine.Result, len(bests))
		for i, best := range bests {
			rs[i] = best.Result
		}
		pts, err := tradeoff.Curve(ctx, m, rs, batchsize.PaperBcrit52B, []int{4096})
		if err != nil {
			return "", err
		}
		p := pts[0]
		fmt.Fprintf(&b, "%-26s %12.2f %14.0f %14.2f\n", f, p.TimeDays, p.CostGPUDays, p.MemoryMinGiB)
	}
	return b.String(), nil
}

// Figure2 renders the theoretical efficiency curves (with and without
// network overlap) for beta_net=6, N_TP=1, N_PP=8.
func Figure2() string {
	betas := []float64{1, 1.125, 1.5, 2, 3, 4, 6, 8, 12, 16}
	var b strings.Builder
	for _, overlap := range []bool{true, false} {
		label := "(a) with overlap"
		if !overlap {
			label = "(b) without overlap"
		}
		fmt.Fprintf(&b, "Figure 2%s: theoretical max GPU utilization (%%), beta_net=6, NTP=1, NPP=8\n", label)
		fmt.Fprintf(&b, "%8s %12s %12s %12s %14s\n", "beta", "looped 8x", "looped 2x", "non-looped", "data-parallel")
		for _, beta := range betas {
			s := analytic.DefaultScenario()
			s.Overlap = overlap
			s8, s2 := s, s
			s8.Loops = 8
			s2.Loops = 2
			fmt.Fprintf(&b, "%8.3f %12.1f %12.1f %12.1f %14.1f\n", beta,
				100*s8.Utilization(core.BreadthFirst, beta),
				100*s2.Utilization(core.BreadthFirst, beta),
				100*s.Utilization(core.GPipe, beta),
				100*s.Utilization(core.NoPipelineBF, beta))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure3 renders the standard and looping placements.
func Figure3() string {
	m := model.Tiny()
	std := core.Plan{Method: core.GPipe, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 1}
	looped := core.Plan{Method: core.BreadthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 4}
	return "Figure 3: layer placements, 16 layers on 4 devices\n\n" +
		trace.Placement(m, std) + "\n" + trace.Placement(m, looped)
}

// DiagramParams idealizes the engine constants for schedule diagrams: the
// paper's Figures 4 and 9 are drawn "times to scale" with the
// pipeline-parallel communication omitted, so the fixed per-op and
// per-message overheads (which dwarf the tiny demo model's compute) are
// zeroed. bfpp-trace and the service's Diagram simulations use the same
// preset.
func DiagramParams() engine.Params {
	par := engine.Defaults()
	par.KernelLaunch = 0
	par.BlockingPPBase = 0
	par.BlockingPPPerRank = 0
	return par
}

// ganttCase simulates a plan on the tiny model and renders its Gantt.
func ganttCase(name string, p core.Plan, width int) (string, error) {
	par := DiagramParams()
	res, err := engine.SimulateOpts(hw.PaperCluster(), model.Tiny(), p,
		engine.Options{CaptureTimeline: true, Params: &par})
	if err != nil {
		return "", fmt.Errorf("%s: %w", name, err)
	}
	return fmt.Sprintf("%s — batch time %.4fs, bubble %.1f%%\n%s\n",
		name, res.BatchTime, 100*res.Bubble, trace.Gantt(res.Timeline, width)), nil
}

// Figure4 renders the four pipeline schedules, times to scale.
func Figure4(ctx context.Context) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 4: pipeline schedules, 16 layers, 4 devices, 8 micro-batches\n\n")
	cases := []struct {
		name string
		plan core.Plan
	}{
		{"(a) GPipe", core.Plan{Method: core.GPipe, DP: 1, PP: 4, TP: 1,
			MicroBatch: 4, NumMicro: 8, Loops: 1, OverlapDP: true, OverlapPP: true}},
		{"(b) 1F1B", core.Plan{Method: core.OneFOneB, DP: 1, PP: 4, TP: 1,
			MicroBatch: 4, NumMicro: 8, Loops: 1}},
		{"(c) Depth-first", core.Plan{Method: core.DepthFirst, DP: 1, PP: 4, TP: 1,
			MicroBatch: 4, NumMicro: 8, Loops: 4}},
		{"(d) Breadth-first", core.Plan{Method: core.BreadthFirst, DP: 1, PP: 4, TP: 1,
			MicroBatch: 4, NumMicro: 8, Loops: 4, OverlapDP: true, OverlapPP: true}},
	}
	for _, c := range cases {
		s, err := ganttCase(c.name, c.plan, 120)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	b.WriteString(trace.Legend())
	return b.String(), nil
}

// Figure5 sweeps the fixed configurations: GPU utilization versus batch
// size per GPU for both models with all four schedules.
func Figure5(ctx context.Context) (string, error) {
	var b strings.Builder
	type cfg struct {
		name       string
		m          model.Transformer
		dp, pp, tp int
		nmbs       []int
	}
	cases := []cfg{
		{"(a) 52B (NPP=NTP=8, NDP=1, Smb=1, Nloop=4)", model.Model52B(), 1, 8, 8,
			[]int{8, 16, 32, 64, 128}},
		{"(b) 6.6B (NPP=4, NTP=2, NDP=8, Smb=1, Nloop=4)", model.Model6p6B(), 8, 4, 2,
			[]int{4, 8, 16, 32, 64}},
	}
	c := hw.PaperCluster()
	for _, cse := range cases {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "Figure 5%s: GPU utilization (%%)\n", cse.name)
		fmt.Fprintf(&b, "%8s %14s %12s %8s %8s\n", "beta", "breadth-first", "depth-first", "gpipe", "1f1b")
		for _, nmb := range cse.nmbs {
			beta := float64(nmb*cse.dp) / 64
			row := []float64{}
			for _, mc := range []struct {
				method core.Method
				loops  int
			}{
				{core.BreadthFirst, 4}, {core.DepthFirst, 4}, {core.GPipe, 1}, {core.OneFOneB, 1},
			} {
				p := core.Plan{Method: mc.method, DP: cse.dp, PP: cse.pp, TP: cse.tp,
					MicroBatch: 1, NumMicro: nmb, Loops: mc.loops}
				// The paper's baselines run without overlap where the
				// implementation blocks (1F1B, depth-first); the overlap
				// capability is the method's registered trait.
				if schedule.TraitsOf(mc.method).Overlap {
					p.OverlapDP, p.OverlapPP = true, true
				}
				r, err := engine.Simulate(c, cse.m, p)
				if err != nil {
					return "", fmt.Errorf("figure5 %v: %w", p, err)
				}
				row = append(row, 100*r.Utilization)
			}
			fmt.Fprintf(&b, "%8.3f %14.1f %12.1f %8.1f %8.1f\n", beta, row[0], row[1], row[2], row[3])
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Figure6 sweeps N_loop for the 52B model at B=16 and B=64.
func Figure6(ctx context.Context) (string, error) {
	var b strings.Builder
	c := hw.PaperCluster()
	m := model.Model52B()
	for _, nmb := range []int{16, 64} {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "Figure 6 (B=%d): GPU utilization (%%) vs stages per device\n", nmb)
		fmt.Fprintf(&b, "%8s %14s %12s\n", "Nloop", "breadth-first", "depth-first")
		for _, loops := range []int{1, 2, 4, 8} {
			bfm, dfm := core.BreadthFirst, core.DepthFirst
			if loops == 1 {
				bfm, dfm = core.GPipe, core.OneFOneB
			}
			bp := core.Plan{Method: bfm, DP: 1, PP: 8, TP: 8, MicroBatch: 1,
				NumMicro: nmb, Loops: loops, OverlapDP: true, OverlapPP: true}
			dp := core.Plan{Method: dfm, DP: 1, PP: 8, TP: 8, MicroBatch: 1,
				NumMicro: nmb, Loops: loops}
			br, err := engine.Simulate(c, m, bp)
			if err != nil {
				return "", err
			}
			dr, err := engine.Simulate(c, m, dp)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%8d %14.1f %12.1f\n", loops, 100*br.Utilization, 100*dr.Utilization)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// scenario names a Figure 7 / Figure 8 / Table E experimental setting.
type scenario struct {
	name    string
	cluster hw.Cluster
	model   model.Transformer
	batches []int
	bcrit   float64
}

func scenarios() []scenario {
	return []scenario{
		{"52B-InfiniBand", hw.PaperCluster(), model.Model52B(), paperBatches52B, batchsize.PaperBcrit52B},
		{"6.6B-InfiniBand", hw.PaperCluster(), model.Model6p6B(), paperBatches6p6B, batchsize.PaperBcrit6p6B},
		{"6.6B-Ethernet", hw.PaperClusterEthernet(), model.Model6p6B(), paperBatchesEthnet, batchsize.PaperBcrit6p6B},
	}
}

// sweepAll runs the grid search for all selected families of a scenario
// over one shared work queue (search.SweepAll): every family's batch x
// plan candidates feed the same bounded worker pool, so a short family's
// tail no longer leaves workers idle while the next family enumerates.
// Families infeasible at every batch are omitted, exactly as the old
// sequential per-family sweep did. Any other candidate error, such as a
// cost model whose durations the engine rejects, is wrapped, not hidden.
func sweepAll(ctx context.Context, sc scenario, cfg Config) (map[search.Family][]search.Best, error) {
	out, err := search.SweepAll(ctx, sc.cluster, sc.model, cfg.fams(), sc.batches, cfg.searchOptions())
	switch {
	case err == nil:
		return out, nil
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case errors.Is(err, search.ErrInfeasible):
		return nil, fmt.Errorf("figures: no feasible family for %s", sc.name)
	default:
		return nil, fmt.Errorf("figures: %s: %w", sc.name, err)
	}
}

// Figure7 produces the best-utilization-vs-batch curves for one scenario
// index (0: 52B, 1: 6.6B, 2: 6.6B Ethernet).
func Figure7(ctx context.Context, idx int, cfg Config) (string, error) {
	scs := scenarios()
	if idx < 0 || idx >= len(scs) {
		return "", fmt.Errorf("figures: scenario %d out of range", idx)
	}
	sc := scs[idx]
	results, err := sweepAll(ctx, sc, cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 (%s): best GPU utilization (%%) per batch size\n", sc.name)
	fmt.Fprintf(&b, "%8s", "batch")
	for _, f := range cfg.fams() {
		fmt.Fprintf(&b, " %26s", f)
	}
	b.WriteString("\n")
	for _, batch := range sc.batches {
		fmt.Fprintf(&b, "%8d", batch)
		for _, f := range cfg.fams() {
			val := "-"
			for _, best := range results[f] {
				if best.Plan.BatchSize() == batch {
					val = fmt.Sprintf("%.1f", 100*best.Utilization)
				}
			}
			fmt.Fprintf(&b, " %26s", val)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Figure8 produces the cost/time trade-off curves for one scenario index.
func Figure8(ctx context.Context, idx int, cfg Config) (string, error) {
	scs := scenarios()
	if idx < 0 || idx >= len(scs) {
		return "", fmt.Errorf("figures: scenario %d out of range", idx)
	}
	sc := scs[idx]
	results, err := sweepAll(ctx, sc, cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 (%s): projected training cost vs time (Bcrit=%.0f)\n\n", sc.name, sc.bcrit)
	for _, f := range cfg.fams() {
		bests, ok := results[f]
		if !ok {
			continue
		}
		rs := make([]engine.Result, len(bests))
		for i, best := range bests {
			rs[i] = best.Result
		}
		pts, err := tradeoff.Curve(ctx, sc.model, rs, sc.bcrit, tradeoff.PaperClusterSizes())
		if err != nil {
			return "", err
		}
		b.WriteString(tradeoff.Format(f.String(), pts))
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Figure9 renders the gradient-accumulation schedules.
func Figure9(ctx context.Context) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 9: gradient accumulation, 4 stages, 4 micro-batches, DP=4\n\n")
	cases := []struct {
		name string
		plan core.Plan
	}{
		{"(a) Depth-first (DP0)", core.Plan{Method: core.NoPipelineDF, DP: 4, PP: 1, TP: 1,
			MicroBatch: 4, NumMicro: 4, Loops: 4, Sharding: core.DP0, OverlapDP: true}},
		{"(b) Depth-first (DP-FS)", core.Plan{Method: core.NoPipelineDF, DP: 4, PP: 1, TP: 1,
			MicroBatch: 4, NumMicro: 4, Loops: 4, Sharding: core.DPFS, OverlapDP: true}},
		{"(c) Breadth-first (DP0)", core.Plan{Method: core.NoPipelineBF, DP: 4, PP: 1, TP: 1,
			MicroBatch: 4, NumMicro: 4, Loops: 4, Sharding: core.DP0, OverlapDP: true}},
		{"(d) Breadth-first (DP-FS)", core.Plan{Method: core.NoPipelineBF, DP: 4, PP: 1, TP: 1,
			MicroBatch: 4, NumMicro: 4, Loops: 4, Sharding: core.DPFS, OverlapDP: true}},
	}
	for _, c := range cases {
		s, err := ganttCase(c.name, c.plan, 120)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	b.WriteString(trace.Legend())
	return b.String(), nil
}

// Table41 renders the qualitative method comparison.
func Table41() string {
	return "Table 4.1 (evaluated at layers=16, PP=4, Nmb=8, Smb=1, Nloop=4, NCh=2)\n" +
		analytic.FormatTable41(analytic.Table41(analytic.DefaultTableParams()))
}

// Table51 renders the model-details table.
func Table51() string {
	var b strings.Builder
	b.WriteString("Table 5.1: models\n")
	fmt.Fprintf(&b, "%-6s %8s %8s %10s %8s %8s %10s\n",
		"Model", "Layers", "Heads", "Head size", "Hidden", "Seq", "Params")
	for _, m := range []model.Transformer{model.Model52B(), model.Model6p6B()} {
		fmt.Fprintf(&b, "%-6s %8d %8d %10d %8d %8d %9.1fB\n",
			m.Name, m.Layers, m.Heads, m.HeadSize, m.Hidden, m.SeqLen,
			float64(m.Params())/1e9)
	}
	return b.String()
}

// TableE produces the optimal-configuration table for one scenario index
// (0: Table E.1, 1: Table E.2, 2: Table E.3).
func TableE(ctx context.Context, idx int, cfg Config) (string, error) {
	scs := scenarios()
	if idx < 0 || idx >= len(scs) {
		return "", fmt.Errorf("figures: scenario %d out of range", idx)
	}
	sc := scs[idx]
	results, err := sweepAll(ctx, sc, cfg)
	if err != nil {
		return "", err
	}
	return search.Table(fmt.Sprintf("Table E.%d (%s)", idx+1, sc.name), results), nil
}

// AppendixB runs the SGD noise-scale experiment: the steps-to-target curve
// across batch sizes, the fitted critical batch size and the
// gradient-statistics estimate.
func AppendixB(ctx context.Context) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	sim := batchsize.SGDSim{Dim: 64, Sigma: 6, Seed: 7}
	batches := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	curve := sim.StepsCurve(batches, 1.0, 0.05, 1_000_000)
	bcrit, smin, err := batchsize.FitCriticalBatch(curve)
	if err != nil {
		return "", err
	}
	est, err := batchsize.EstimateNoiseScale(sim.Sampler(0.5), 4, 64, 400)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Appendix B: SGD noise-scale experiment (analytic B_noise = %.0f)\n", sim.NoiseScale())
	fmt.Fprintf(&b, "%8s %10s %12s\n", "batch", "steps", "samples")
	for _, batch := range batches {
		fmt.Fprintf(&b, "%8d %10d %12d\n", batch, curve[batch], batch*curve[batch])
	}
	fmt.Fprintf(&b, "\nfit: Steps = %.0f * (1 + %.1f/B)   (law of Eq. 37)\n", smin, bcrit)
	fmt.Fprintf(&b, "gradient-statistics estimate of B_noise: %.1f (McCandlish estimator)\n", est)
	return b.String(), nil
}

// Generator names one regenerable artifact. Run observes ctx: the
// sweep-backed artifacts abort between candidate simulations, the cheap
// ones between cases.
type Generator struct {
	Name string
	Run  func(ctx context.Context) (string, error)
}

// Generators lists every artifact in paper order, with the sweep-backed
// ones bound to the given config (family selection, worker budget).
func Generators(cfg Config) []Generator {
	wrap := func(f func() string) func(context.Context) (string, error) {
		return func(ctx context.Context) (string, error) {
			if err := ctx.Err(); err != nil {
				return "", err
			}
			return f(), nil
		}
	}
	sweep := func(f func(context.Context, Config) (string, error)) func(context.Context) (string, error) {
		return func(ctx context.Context) (string, error) { return f(ctx, cfg) }
	}
	indexed := func(f func(context.Context, int, Config) (string, error), idx int) func(context.Context) (string, error) {
		return func(ctx context.Context) (string, error) { return f(ctx, idx, cfg) }
	}
	return []Generator{
		{"figure1", sweep(Figure1)},
		{"figure2", wrap(Figure2)},
		{"figure3", wrap(Figure3)},
		{"figure4", Figure4},
		{"figure5", Figure5},
		{"figure6", Figure6},
		{"figure7a", indexed(Figure7, 0)},
		{"figure7b", indexed(Figure7, 1)},
		{"figure7c", indexed(Figure7, 2)},
		{"figure8a", indexed(Figure8, 0)},
		{"figure8b", indexed(Figure8, 1)},
		{"figure8c", indexed(Figure8, 2)},
		{"figure9", Figure9},
		{"table4.1", wrap(Table41)},
		{"table5.1", wrap(Table51)},
		{"tableE1", indexed(TableE, 0)},
		{"tableE2", indexed(TableE, 1)},
		{"tableE3", indexed(TableE, 2)},
		{"appendixB", AppendixB},
		{"appendixE-large", sweep(AppendixELarge)},
		{"extension-nextgen", ExtensionNextGen},
		{"extension-schedules", sweep(ExtensionSchedules)},
	}
}

// WriteAll regenerates every artifact into dir (one .txt per artifact),
// stopping at the first failure — including ctx cancellation, which aborts
// mid-sweep without writing the interrupted artifact.
func WriteAll(ctx context.Context, dir string, cfg Config) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, g := range Generators(cfg) {
		s, err := g.Run(ctx)
		if err != nil {
			return fmt.Errorf("figures: %s: %w", g.Name, err)
		}
		path := filepath.Join(dir, g.Name+".txt")
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			return err
		}
	}
	return nil
}
