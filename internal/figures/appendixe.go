package figures

import (
	"context"
	"fmt"
	"strings"

	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/search"
)

// AppendixELarge extends the Appendix E grid beyond the paper's 64-GPU
// testbed (ROADMAP open item): the GPT-3 and 1T example models of Appendix
// A.1 searched on V100 LargeClusters, over every registered family — so
// the per-grid-point V-schedule in-flight caps and the Section 4.2 hybrid
// sequence lengths are enumerated too — with the branch-and-bound pruning
// statistics (candidates enumerated / bounded out / simulated) that make
// these sweeps tractable reported per scenario.
func AppendixELarge(ctx context.Context, cfg Config) (string, error) {
	fams := cfg.allFams()
	var b strings.Builder
	b.WriteString("Appendix E (extended): GPT-3 and 1T on V100 LargeClusters,\n")
	b.WriteString("all registered families, V-caps and hybrid sequence lengths enumerated\n\n")
	for _, sc := range []struct {
		name    string
		cluster hw.Cluster
		model   model.Transformer
		batches []int
	}{
		{"GPT-3 on 512 V100", hw.LargeCluster(512), model.GPT3(), []int{64, 128, 256}},
		{"1T on 2048 V100", hw.LargeCluster(2048), model.Model1T(), []int{256, 512}},
	} {
		stats := &search.Stats{}
		// Workers pinned to 1: the bounded-out/simulated split depends on
		// worker timing, and a persisted artifact must be byte-reproducible
		// run over run. The sweep is small (a few hundred candidates after
		// pruning), so the serial pool costs little.
		results, err := search.SweepAll(ctx, sc.cluster, sc.model, fams, sc.batches,
			search.Options{Stats: stats, Workers: 1})
		if err != nil {
			return "", fmt.Errorf("appendixE-large: %s: %w", sc.name, err)
		}
		b.WriteString(search.Table(fmt.Sprintf("Optimal configurations: %s (%d GPUs)",
			sc.name, sc.cluster.NumGPUs()), results))
		fmt.Fprintf(&b, "pruning: %v\n", stats)
		for _, key := range stats.FamilyKeys() {
			fmt.Fprintf(&b, "pruning[%s]: %v\n", key, stats.Family(key))
		}
		b.WriteString("\n")
	}
	b.WriteString("branch-and-bound: candidates are priced by the analytic step-time lower\n")
	b.WriteString("bound (the multi-stream replay of the checked device programs, exact for\n")
	b.WriteString("every generator that registers it — overlapped or not; a vee\n")
	b.WriteString("warmup/drain floor for the V-schedule) and only simulated when the bound\n")
	b.WriteString("can still beat the incumbent; winners are byte-identical to the\n")
	b.WriteString("exhaustive search.\n")
	return b.String(), nil
}
