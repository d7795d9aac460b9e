package bfpp_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index). One benchmark per
// artifact: BenchmarkFigure1 .. BenchmarkTableE3 and BenchmarkAppendixB
// each measure a full regeneration of that artifact from the simulator and
// grid search; the remaining benchmarks measure the core primitives.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The regenerated artifacts themselves are written by cmd/bfpp-figures.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"bfpp"
	"bfpp/internal/batchsize"
	"bfpp/internal/collective"
	"bfpp/internal/core"
	"bfpp/internal/cost"
	"bfpp/internal/engine"
	"bfpp/internal/fault"
	"bfpp/internal/figures"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
	"bfpp/internal/search"
	"bfpp/internal/service"
	"bfpp/internal/store"
	"bfpp/internal/tensor"
)

// benchArtifact runs one figures generator per iteration.
func benchArtifact(b *testing.B, name string) {
	b.Helper()
	for _, g := range figures.Generators(figures.Config{}) {
		if g.Name != name {
			continue
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("unknown artifact %q", name)
}

// Paper artifacts, one benchmark each.

func BenchmarkFigure1(b *testing.B)   { benchArtifact(b, "figure1") }
func BenchmarkFigure2(b *testing.B)   { benchArtifact(b, "figure2") }
func BenchmarkFigure3(b *testing.B)   { benchArtifact(b, "figure3") }
func BenchmarkFigure4(b *testing.B)   { benchArtifact(b, "figure4") }
func BenchmarkFigure5(b *testing.B)   { benchArtifact(b, "figure5") }
func BenchmarkFigure6(b *testing.B)   { benchArtifact(b, "figure6") }
func BenchmarkFigure7a(b *testing.B)  { benchArtifact(b, "figure7a") }
func BenchmarkFigure7b(b *testing.B)  { benchArtifact(b, "figure7b") }
func BenchmarkFigure7c(b *testing.B)  { benchArtifact(b, "figure7c") }
func BenchmarkFigure8a(b *testing.B)  { benchArtifact(b, "figure8a") }
func BenchmarkFigure8b(b *testing.B)  { benchArtifact(b, "figure8b") }
func BenchmarkFigure8c(b *testing.B)  { benchArtifact(b, "figure8c") }
func BenchmarkFigure9(b *testing.B)   { benchArtifact(b, "figure9") }
func BenchmarkTable41(b *testing.B)   { benchArtifact(b, "table4.1") }
func BenchmarkTable51(b *testing.B)   { benchArtifact(b, "table5.1") }
func BenchmarkTableE1(b *testing.B)   { benchArtifact(b, "tableE1") }
func BenchmarkTableE2(b *testing.B)   { benchArtifact(b, "tableE2") }
func BenchmarkTableE3(b *testing.B)   { benchArtifact(b, "tableE3") }
func BenchmarkAppendixB(b *testing.B) { benchArtifact(b, "appendixB") }

// BenchmarkAppendixELarge regenerates the extended Appendix E grid (GPT-3
// and 1T on LargeClusters, all families, V-caps and hybrid sequence
// lengths) — tractable because of the branch-and-bound pruning.
func BenchmarkAppendixELarge(b *testing.B) { benchArtifact(b, "appendixE-large") }

// BenchmarkExtensionNextGen regenerates the A100/H100 what-if from the
// paper's conclusion.
func BenchmarkExtensionNextGen(b *testing.B) { benchArtifact(b, "extension-nextgen") }

// BenchmarkExtensionHybrid measures the Section 4.2 hybrid schedule sweep:
// sequence length from N_PP (depth-first) to N_mb (breadth-first-like).
func BenchmarkExtensionHybrid(b *testing.B) {
	c := hw.PaperCluster()
	m := model.Model52B()
	var last float64
	for i := 0; i < b.N; i++ {
		for _, seq := range []int{8, 16, 32, 64} {
			p := core.Plan{Method: core.Hybrid, DP: 1, PP: 8, TP: 8,
				MicroBatch: 1, NumMicro: 64, Loops: 8, Sequence: seq,
				OverlapDP: true, OverlapPP: true}
			r, err := engine.Simulate(c, m, p)
			if err != nil {
				b.Fatal(err)
			}
			last = r.Utilization
		}
	}
	b.ReportMetric(100*last, "util%/seq=64")
}

// Core primitives.

// BenchmarkScheduleGeneration measures building the breadth-first program
// for the paper's largest interesting configuration.
func BenchmarkScheduleGeneration(b *testing.B) {
	p := core.Plan{Method: core.BreadthFirst, DP: 4, PP: 8, TP: 2,
		MicroBatch: 1, NumMicro: 64, Loops: 8, Sharding: core.DPFS,
		OverlapDP: true, OverlapPP: true}
	for i := 0; i < b.N; i++ {
		s, err := schedule.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := schedule.Check(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleGenerationV measures building and checking the
// V-schedule's largest grid key (PP 128, NumMicro 256, Loops 2, the
// default cap), the greedy list scheduler the Appendix E grids generate
// on every cold run.
func BenchmarkScheduleGenerationV(b *testing.B) {
	p := core.Plan{Method: core.VSchedule, DP: 1, PP: 128, TP: 1,
		MicroBatch: 1, NumMicro: 256, Loops: 2,
		OverlapDP: true, OverlapPP: true}
	for i := 0; i < b.N; i++ {
		s, err := schedule.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := schedule.Check(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateBatch measures one simulation (the schedule replay) of a
// realistic 52B configuration.
func BenchmarkSimulateBatch(b *testing.B) {
	c := hw.PaperCluster()
	m := model.Model52B()
	p := core.Plan{Method: core.BreadthFirst, DP: 4, PP: 8, TP: 2,
		MicroBatch: 1, NumMicro: 12, Loops: 8, Sharding: core.DPFS,
		OverlapDP: true, OverlapPP: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Simulate(c, m, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSearchOneBatch measures a full Appendix E search at one
// batch size.
func BenchmarkGridSearchOneBatch(b *testing.B) {
	c := hw.PaperCluster()
	m := model.Model52B()
	for i := 0; i < b.N; i++ {
		if _, err := search.Optimize(context.Background(), c, m, search.FamilyBreadthFirst, 64, search.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel search engine benchmarks: the perf harness (scripts/bench.sh)
// turns these into BENCH_search.json. The speedups over the original
// serial, uncached evaluator, since deleted, are frozen in its history
// block.

// benchSweep runs the full Figure 7 / Table E.1 grid: every family at every
// 52B paper batch size.
func benchSweep(b *testing.B, opt search.Options) {
	b.Helper()
	benchSweepCtx(b, context.Background(), opt)
}

// benchSweepCtx is benchSweep with a caller-supplied context (the
// fault-overhead variant arms a chaos injector on it).
func benchSweepCtx(b *testing.B, ctx context.Context, opt search.Options) {
	b.Helper()
	c := hw.PaperCluster()
	m := model.Model52B()
	batches := []int{8, 16, 32, 64, 128, 256, 512}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range search.Families() {
			if _, err := search.Sweep(ctx, c, m, f, batches, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepFigure7Parallel measures the same sweep on the worker pool
// with caches but the branch-and-bound disabled:
// every candidate is simulated, which is the denominator of the pruning
// speedup.
func BenchmarkSweepFigure7Parallel(b *testing.B) {
	benchSweep(b, search.Options{NoPrune: true})
}

// BenchmarkSweepFigure7Pruned is the default evaluator: worker pool,
// caches, and the analytic branch-and-bound (cheapest-bound ordering,
// incumbent skipping). Results are byte-identical to the unpruned sweep;
// the prune% metric reports the fraction of candidates that never reached
// the simulator.
func BenchmarkSweepFigure7Pruned(b *testing.B) {
	stats := &search.Stats{}
	benchSweep(b, search.Options{Stats: stats})
	if e := stats.Enumerated.Load(); e > 0 {
		b.ReportMetric(100*stats.PruneRate(), "prune%")
		// Cascade tier metrics (BENCH_search.json's cascade object): the
		// fraction of bound-skips the tier-1 floor won without an exact
		// replay, and the fraction of candidates that paid the O(ops)
		// tier-2 price.
		if s := stats.BoundSkipped.Load(); s > 0 {
			b.ReportMetric(100*float64(stats.FlooredOut.Load())/float64(s), "floored%")
		}
		b.ReportMetric(100*float64(stats.ReplayPriced.Load())/float64(e), "replay%")
		// Per-family prune rates (BENCH_search.json's prune_rate_by_family):
		// how far each family's registered bound carries the pruning.
		for _, key := range stats.FamilyKeys() {
			b.ReportMetric(100*stats.Family(key).PruneRate(), "prune_"+key+"%")
		}
	}
}

// BenchmarkSweepFigure7PrunedSerial is BenchmarkSweepFigure7Pruned on one
// worker. scripts/bench.sh ratios the two as BENCH_search.json's
// parallel_scaling: each Sweep call spreads its seven (family, batch)
// groups over the pool, so the ratio shows what GOMAXPROCS workers buy.
func BenchmarkSweepFigure7PrunedSerial(b *testing.B) {
	benchSweep(b, search.Options{Workers: 1})
}

// BenchmarkSweepFigure7PrunedCostModel is BenchmarkSweepFigure7Pruned with
// the pricing routed through an explicitly looked-up "paper" cost model
// instead of the nil-Model fast default. The work is identical by
// construction (same formulas, same bytes); what it measures is the cost of
// the registry indirection itself. scripts/bench.sh ratios it against the
// default sweep as BENCH_search.json's cost_model_overhead, pinned near 1.
func BenchmarkSweepFigure7PrunedCostModel(b *testing.B) {
	cm, err := cost.Registry.Lookup("paper")
	if err != nil {
		b.Fatal(err)
	}
	par := engine.Defaults()
	par.Model = cm
	benchSweep(b, search.Options{Params: &par})
}

// BenchmarkSweepAppendixELarge is the interactive-scale smoke benchmark the
// cascade targets: the extended Appendix E grid (GPT-3 on the 512-GPU
// cluster, every registered family including the V-caps and hybrid sequence
// lengths) submitted through the service with a 30-second default deadline.
// The assertion is the point: the full-grid sweep must complete — not
// degrade to a Partial response — inside an interactive budget.
func BenchmarkSweepAppendixELarge(b *testing.B) {
	req := service.SearchRequest{Model: "gpt3", Cluster: "512",
		Families: []string{"every"}, Batches: []int{64, 128, 256}}
	for i := 0; i < b.N; i++ {
		svc := service.New(service.Config{DefaultTimeout: 30 * time.Second})
		resp, err := svc.Search(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Partial {
			b.Fatal("Appendix E large sweep degraded to a partial response within the interactive deadline")
		}
	}
}

// BenchmarkSweepFigure7PrunedFault is BenchmarkSweepFigure7Pruned with an
// armed — but ruleless — chaos injector riding the context: every worker-pool
// item pays the real injector consultation at the PoolItem point, with no
// fault ever firing. scripts/bench.sh ratios it against the uninstrumented
// sweep as BENCH_search.json's fault_overhead.sweep_figure7_pruned, pinned
// at <= 1.02x: arming chaos does not tax the search hot path.
func BenchmarkSweepFigure7PrunedFault(b *testing.B) {
	benchSweepCtx(b, fault.With(context.Background(), fault.NewScript()), search.Options{})
}

// BenchmarkSimulateBatchFault is BenchmarkSimulateBatch plus an armed,
// ruleless injector consulted once per simulation — the call shape of the
// service's Job injection point. scripts/bench.sh ratios it against the
// bare simulation as BENCH_search.json's fault_overhead.simulate_batch.
func BenchmarkSimulateBatchFault(b *testing.B) {
	inj := fault.NewScript()
	c := hw.PaperCluster()
	m := model.Model52B()
	p := core.Plan{Method: core.BreadthFirst, DP: 4, PP: 8, TP: 2,
		MicroBatch: 1, NumMicro: 12, Loops: 8, Sharding: core.DPFS,
		OverlapDP: true, OverlapPP: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := inj.At(fault.Job, i); ok {
			b.Fatal("ruleless script fired a fault")
		}
		if _, err := engine.Simulate(c, m, p); err != nil {
			b.Fatal(err)
		}
	}
}

// Service-path benchmarks: the Figure-7 sweep submitted as a
// SearchRequest, measuring what the request/response layer adds on top of
// the direct search (canonicalization, job slot, response assembly) and
// what the result cache saves. scripts/bench.sh turns the pair into
// BENCH_search.json's service_overhead and service_cache speedups.

// figure7Request is the Figure 7 / Table E.1 grid as a service request.
func figure7Request() service.SearchRequest {
	return service.SearchRequest{Model: "52B", Cluster: "paper",
		Batches: []int{8, 16, 32, 64, 128, 256, 512}}
}

// BenchmarkServiceSearchCold measures the uncached service path: a fresh
// Service per iteration, so every request runs the full pruned sweep.
func BenchmarkServiceSearchCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		svc := service.New(service.Config{})
		if _, err := svc.Search(context.Background(), figure7Request()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSearchStore measures the durable cold path: a fresh
// Service with a fresh result store and sweep journal per iteration, so
// every request runs the full pruned sweep, checkpoints each (family,
// batch) winner to the journal and persists the response. NoSync keeps
// the measurement about the durability machinery itself — JSON
// marshalling, CRC framing, the per-group journal appends — not the
// host's fsync latency (a deployment policy, toggled by -store-nosync).
// scripts/bench.sh turns ServiceSearchStore / ServiceSearchCold into
// BENCH_search.json's store_overhead (clamped at 1.0, raw alongside).
func BenchmarkServiceSearchStore(b *testing.B) {
	dir := b.TempDir()
	sopts := store.Options{Repair: true, NoSync: true}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.OpenOptions(filepath.Join(dir, fmt.Sprintf("results-%d.log", i)), sopts)
		if err != nil {
			b.Fatal(err)
		}
		j, err := store.OpenJournalOptions(filepath.Join(dir, fmt.Sprintf("sweeps-%d.journal", i)), sopts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		svc := service.New(service.Config{Store: st, Journal: j})
		if _, err := svc.Search(context.Background(), figure7Request()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st.Close()
		j.Close()
		b.StartTimer()
	}
}

// BenchmarkServiceSearchCached measures a cache hit on the same request.
func BenchmarkServiceSearchCached(b *testing.B) {
	svc := service.New(service.Config{})
	if _, err := svc.Search(context.Background(), figure7Request()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := svc.Search(context.Background(), figure7Request())
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkRingAllReduce measures the channel-based ring all-reduce used by
// the training runtime (8 ranks, 64k elements).
func BenchmarkRingAllReduce(b *testing.B) {
	g := collective.NewGroup(8)
	data := make([][]float64, 8)
	for r := range data {
		data[r] = make([]float64, 65536)
		for i := range data[r] {
			data[r][i] = float64(r + i)
		}
	}
	b.SetBytes(8 * 65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Run(func(rank int) { g.AllReduce(rank, data[rank]) })
	}
}

// BenchmarkRuntimeStep measures one real training step of the goroutine
// runtime under the breadth-first schedule with DP-FS.
func BenchmarkRuntimeStep(b *testing.B) {
	cfg := bfpp.NetConfig{Layers: 8, Dim: 32, Hidden: 64, Seed: 1}
	plan := core.Plan{Method: core.BreadthFirst, DP: 2, PP: 2, TP: 1,
		MicroBatch: 4, NumMicro: 4, Loops: 4, Sharding: core.DPFS}
	tr, err := bfpp.NewTrainer(cfg, plan, bfpp.DefaultAdam())
	if err != nil {
		b.Fatal(err)
	}
	in := tensor.New(plan.BatchSize(), cfg.Dim)
	tgt := tensor.New(plan.BatchSize(), cfg.Dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(in, tgt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSGDNoiseScale measures the Appendix B noise-scale estimator.
func BenchmarkSGDNoiseScale(b *testing.B) {
	sim := batchsize.SGDSim{Dim: 64, Sigma: 6, Seed: 7}
	for i := 0; i < b.N; i++ {
		if _, err := batchsize.EstimateNoiseScale(sim.Sampler(0.5), 4, 64, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks: the design choices DESIGN.md calls out, measured by
// re-simulating the Figure 6 point (52B, B=64, Nloop=8) under modified
// engine parameters.

func ablationPoint(b *testing.B, mutate func(*engine.Params)) float64 {
	b.Helper()
	par := engine.Defaults()
	mutate(&par)
	c := hw.PaperCluster()
	m := model.Model52B()
	p := core.Plan{Method: core.DepthFirst, DP: 1, PP: 8, TP: 8,
		MicroBatch: 1, NumMicro: 64, Loops: 8}
	r, err := engine.SimulateOpts(c, m, p, engine.Options{Params: &par})
	if err != nil {
		b.Fatal(err)
	}
	return r.Utilization
}

// BenchmarkAblationBlockingStall quantifies the non-overlapped transfer
// stall: with it removed, the depth-first schedule stops degrading at high
// N_loop (the effect Section 5.2 measures).
func BenchmarkAblationBlockingStall(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablationPoint(b, func(p *engine.Params) {})
		without = ablationPoint(b, func(p *engine.Params) {
			p.BlockingPPBase, p.BlockingPPPerRank = 0, 0
		})
	}
	b.ReportMetric(100*with, "util%/with-stall")
	b.ReportMetric(100*without, "util%/no-stall")
}

// BenchmarkAblationKernelLaunch quantifies the fixed per-op overhead.
func BenchmarkAblationKernelLaunch(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablationPoint(b, func(p *engine.Params) {})
		without = ablationPoint(b, func(p *engine.Params) { p.KernelLaunch = 0 })
	}
	b.ReportMetric(100*with, "util%/with-launch")
	b.ReportMetric(100*without, "util%/no-launch")
}
