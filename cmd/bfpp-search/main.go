// Command bfpp-search runs the Appendix E configuration grid search: for
// each method family and batch size it enumerates the feasible distributed
// configurations, simulates them and prints the winners in the format of
// Tables E.1-E.3 (which also yields the Figure 7 curves).
//
// The command is a thin client of the job service (internal/service): it
// submits the same SearchRequest that cmd/bfpp-serve accepts over
// POST /v1/search, so a CLI invocation and a server request provably run
// identical jobs and print byte-identical tables. Ctrl-C cancels the
// search promptly (workers drain between candidate simulations).
//
// Families come from the schedule registry: -families selects by key
// ("all" = the paper's four, "every" = all registered, including the
// extension schedules), and -methods selects the families containing the
// named schedules. Models and clusters resolve through the open
// registries (model.Registry, hw.Registry).
//
// The search runs branch-and-bound by default: candidates are priced with
// the analytic step-time lower bound and simulated only when they can
// still beat the incumbent (results are byte-identical either way;
// -noprune simulates everything). Pruning statistics go to stderr.
//
// Examples:
//
//	bfpp-search -model 52B -batches 8,16,32,64,128,256,512      # Table E.1
//	bfpp-search -model 6.6B -cluster ethernet -batches 64,128   # Table E.3
//	bfpp-search -model 6.6B -families every -batches 64         # + extensions
//	bfpp-search -model 6.6B -methods ws-1f1b,v-schedule -batches 64
//	bfpp-search -model gpt3 -cluster 512 -families every -batches 64,128
//	bfpp-search -model 1T -cluster 2048 -batches 256,512        # Appendix E large
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"bfpp/internal/cli"
	"bfpp/internal/service"
)

func main() {
	var (
		modelName   = flag.String("model", "52B", "model: any registered name (52B, 6.6B, gpt3, 1T, tiny)")
		clusterName = flag.String("cluster", "paper", "cluster: any registered name (paper, ethernet, or a GPU count)")
		familyNames = flag.String("families", "all", "comma-separated family keys (bf, df, nl, np, ws, v, ...), \"all\" (paper) or \"every\" (all registered)")
		methodNames = flag.String("methods", "", "comma-separated schedule names; selects the families containing them (overrides -families)")
		batchesStr  = flag.String("batches", "8,16,32,64,128,256,512", "comma-separated global batch sizes")
		workers     = flag.Int("workers", 0, "search worker goroutines (0 = GOMAXPROCS, 1 = serial)")
		noPrune     = flag.Bool("noprune", false, "disable the analytic branch-and-bound (simulate every candidate)")
		costModel   = flag.String("costmodel", "", "cost model: any registered spelling (paper, calibrated, contended, calibrated:<profile.json>); empty = paper")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	batches, err := cli.ParseInts(*batchesStr)
	fatalIf(err)
	req := service.SearchRequest{
		Model:     *modelName,
		Cluster:   *clusterName,
		Families:  splitList(*familyNames),
		Methods:   splitList(*methodNames),
		Batches:   batches,
		NoPrune:   *noPrune,
		Workers:   *workers,
		CostModel: *costModel,
	}
	// Retryable failures (load shedding, transient faults) back off and try
	// again; results are identical across retries, so the wrapper never
	// changes output — only availability.
	svc := service.New(service.Config{MaxJobs: 1})
	resp, err := service.Do(ctx, service.DefaultRetry(1), func() (service.SearchResponse, error) {
		return svc.Search(ctx, req)
	})
	fatalIf(err)

	for _, fr := range resp.Families {
		if len(fr.Bests) == 0 {
			fmt.Fprintf(os.Stderr, "bfpp-search: %v: no feasible configuration at any batch (skipping)\n", fr.Name)
		}
	}
	fmt.Print(resp.Table)
	st := resp.Stats
	fmt.Fprintf(os.Stderr, "bfpp-search: pruning: enumerated %d, bounded out %d, simulated %d (%.1f%% pruned)\n",
		st.Enumerated, st.BoundedOut, st.Simulated, 100*pruneRate(st.Enumerated, st.BoundedOut))
	fmt.Fprintf(os.Stderr, "bfpp-search: cascade: floored out %d, replay priced %d\n",
		st.FlooredOut, st.ReplayPriced)
	for _, fp := range st.Families {
		fmt.Fprintf(os.Stderr, "bfpp-search: pruning[%s]: enumerated %d, bounded out %d (floored %d), simulated %d, replay priced %d (%.1f%% pruned)\n",
			fp.Key, fp.Enumerated, fp.BoundedOut, fp.FlooredOut,
			fp.Simulated, fp.ReplayPriced, 100*pruneRate(fp.Enumerated, fp.BoundedOut))
	}
}

// splitList turns a comma-separated flag into the request's list form.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func pruneRate(enumerated, pruned int64) float64 {
	if enumerated == 0 {
		return 0
	}
	return float64(pruned) / float64(enumerated)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfpp-search:", err)
		os.Exit(1)
	}
}
