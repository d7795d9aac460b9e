// Command bfpp-tradeoff reproduces the training time/cost trade-off of
// Section 5.4: it grid-searches the best configurations per method and
// batch size on the reference 64-GPU cluster, extrapolates them to a range
// of cluster sizes with the batch-size overhead law (Eq. 7), and prints the
// cost-versus-time curves of Figure 8 plus the Figure 1 summary at 4096
// GPUs.
//
// The sweep runs through the job service as one SearchRequest per family
// (the same struct cmd/bfpp-serve accepts), then the extrapolation
// projects the structured winners locally; Ctrl-C cancels promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"bfpp/internal/batchsize"
	"bfpp/internal/cli"
	"bfpp/internal/engine"
	"bfpp/internal/service"
	"bfpp/internal/tradeoff"
)

func main() {
	var (
		modelName   = flag.String("model", "52B", "model: 52B or 6.6B")
		clusterName = flag.String("cluster", "paper", "reference cluster: paper or ethernet")
		batchesStr  = flag.String("batches", "8,16,32,64,128,256,512", "measured batch sizes")
		gpusStr     = flag.String("gpus", "256,512,1024,2048,4096,8192,16384", "cluster sizes to extrapolate to")
		figure1At   = flag.Int("figure1", 4096, "cluster size for the Figure 1 summary (0 to skip)")
		workers     = flag.Int("workers", 0, "search worker goroutines (0 = GOMAXPROCS, 1 = serial)")
		costModel   = flag.String("costmodel", "", "cost model for the sweep (paper, calibrated, contended, calibrated:<profile.json>); empty = paper")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	m, err := cli.ParseModel(*modelName)
	fatalIf(err)
	c, err := cli.ParseCluster(*clusterName)
	fatalIf(err)
	batches, err := cli.ParseInts(*batchesStr)
	fatalIf(err)
	gpus, err := cli.ParseInts(*gpusStr)
	fatalIf(err)

	bcrit := batchsize.PaperBcrit52B
	if m.Name == "6.6B" {
		bcrit = batchsize.PaperBcrit6p6B
	}
	fmt.Printf("%s on %s, Bcrit = %.0f sequences, base length %.0f critical batches\n\n",
		m.Name, c.Name, bcrit, batchsize.PaperBaseBatches)

	svc := service.New(service.Config{MaxJobs: 1})
	// Retryable failures back off and retry; the sweep is deterministic, so
	// retries cannot change the curves.
	resp, err := service.Do(ctx, service.DefaultRetry(1), func() (service.SearchResponse, error) {
		return svc.Search(ctx, service.SearchRequest{
			Model:     *modelName,
			Cluster:   *clusterName,
			Batches:   batches,
			Workers:   *workers,
			CostModel: *costModel,
		})
	})
	fatalIf(err)

	type familyCurve struct {
		name   string
		points []tradeoff.Point
	}
	var curves []familyCurve
	for _, fr := range resp.Families {
		if len(fr.Bests) == 0 {
			fmt.Fprintf(os.Stderr, "bfpp-tradeoff: %v: no feasible configuration (skipping)\n", fr.Name)
			continue
		}
		results := make([]engine.Result, len(fr.Bests))
		for i, b := range fr.Bests {
			results[i] = b.Result
		}
		pts, err := tradeoff.Curve(ctx, m, results, bcrit, gpus)
		fatalIf(err)
		curves = append(curves, familyCurve{fr.Name, pts})
		fmt.Print(tradeoff.Format(fr.Name, pts))
		fmt.Println()
	}

	if *figure1At > 0 {
		fmt.Printf("Figure 1 summary at %d GPUs (%s):\n", *figure1At, m.Name)
		fmt.Printf("%-26s %12s %14s %12s\n", "Method", "time (days)", "cost (GPUd)", "mem min GiB")
		for _, fc := range curves {
			for _, p := range fc.points {
				if p.GPUs == *figure1At {
					fmt.Printf("%-26s %12.2f %14.0f %12.2f\n",
						fc.name, p.TimeDays, p.CostGPUDays, p.MemoryMinGiB)
				}
			}
		}
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfpp-tradeoff:", err)
		os.Exit(1)
	}
}
