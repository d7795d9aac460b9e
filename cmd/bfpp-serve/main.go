// Command bfpp-serve exposes the bfpp job service over HTTP: the Appendix
// E grid search, single-plan simulation and figure regeneration, with the
// same request structs the command-line tools submit in process — so a
// curl request and a bfpp-search invocation provably run identical jobs
// and print byte-identical tables.
//
// Endpoints:
//
//	POST /v1/search    {"model":"6.6B","cluster":"paper","batches":[32,64]}
//	POST /v1/simulate  {"model":"52B","cluster":"paper","plan":{...}}
//	POST /v1/figures   {"names":["figure4"]}
//	GET  /healthz
//
// /v1/search?stream=1 and /v1/figures?stream=1 stream NDJSON progress
// lines while the job runs, then the final result. Request deadlines
// ("timeout_ms", or -timeout) map onto the job's context; identical
// search requests are served from the result cache. Models and clusters
// resolve through the open registries, so a registry-added scenario is
// immediately servable without new endpoints. GET /metrics exposes the
// service counters in the Prometheus text format.
//
// The server is hardened for unattended runs: panics are contained to the
// crashing request, oversize bodies get 413 (-max-body), saturation sheds
// load with 429 + Retry-After instead of queueing unbounded (-queue), a
// deadline that expires mid-sweep degrades to the incumbents-so-far table
// marked "partial": true, and /healthz reports structured load state.
// -chaos arms a deterministic fault script (internal/fault) for recovery
// drills: e.g. -chaos job:error:1 makes the first job fail transiently,
// which a retrying client must absorb.
//
// -store DIR makes the service crash-safe: computed sweeps persist to
// DIR/results.log (CRC-framed, torn tails self-truncated at open) and
// every sweep checkpoints its per-(family, batch) winners to
// DIR/sweeps.journal as they resolve — a restarted server serves finished
// sweeps from disk and resumes interrupted ones, re-pricing only the
// unfinished groups, with byte-identical tables either way.
//
// Example:
//
//	bfpp-serve -addr localhost:8080 -store /var/lib/bfpp &
//	curl -s -X POST localhost:8080/v1/search \
//	    -d '{"model":"6.6B","cluster":"paper","batches":[32,64,96]}' |
//	  python3 -c 'import json,sys; print(json.load(sys.stdin)["table"])'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"bfpp/internal/cli"
	"bfpp/internal/fault"
	"bfpp/internal/service"
	"bfpp/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:8080", "listen address (use :0 for an ephemeral port)")
		jobs       = flag.Int("jobs", 0, "max concurrently executing jobs (0 = 4); further requests queue")
		maxWorkers = flag.Int("max-workers", 0, "per-request worker budget clamp (0 = GOMAXPROCS)")
		cacheSize  = flag.Int("cache", 0, "search result cache entries (0 = 64, negative disables)")
		timeout    = flag.Duration("timeout", 0, "default per-request deadline (0 = none)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		queue      = flag.Int("queue", 0, "max requests queued for a job slot before shedding 429s (0 = 16, negative = unbounded)")
		maxBody    = flag.Int64("max-body", 0, "request body cap in bytes, 413 beyond (0 = 1 MiB, negative = uncapped)")
		chaos      = flag.String("chaos", "", "deterministic fault script, e.g. \"job:error:1,pool:delay:3:5\" (point:kind:times[:delay-ms])")
		storeDir   = flag.String("store", "", "durability directory: results persist to DIR/results.log, sweeps checkpoint to DIR/sweeps.journal (empty = in-memory only)")
		nosync     = flag.Bool("store-nosync", false, "skip the per-record fsync (faster; a host crash can tear the tail, which the CRC framing heals at next open)")
		costModel  = flag.String("costmodel", "", "default cost model for requests without a cost_model field (paper, calibrated, contended, calibrated:<profile.json>); empty = paper")
	)
	flag.Parse()

	if *costModel != "" {
		// Validate the default spelling at startup: a typo (or an unreadable
		// calibrated profile) should fail the launch, not every request.
		if _, err := cli.ParseCostModel(*costModel); err != nil {
			fmt.Fprintln(os.Stderr, "bfpp-serve:", err)
			os.Exit(1)
		}
		fmt.Printf("bfpp-serve: default cost model: %s\n", *costModel)
	}

	var injector fault.Injector
	if *chaos != "" {
		script, err := fault.ParseScript(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfpp-serve:", err)
			os.Exit(1)
		}
		injector = script
		fmt.Printf("bfpp-serve: chaos script armed: %s\n", *chaos)
	}
	cfg := service.Config{
		MaxJobs:              *jobs,
		MaxWorkersPerRequest: *maxWorkers,
		CacheEntries:         *cacheSize,
		DefaultTimeout:       *timeout,
		MaxQueued:            *queue,
		MaxBodyBytes:         *maxBody,
		Injector:             injector,
		DefaultCostModel:     *costModel,
	}
	if *storeDir != "" {
		if err := os.MkdirAll(*storeDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bfpp-serve:", err)
			os.Exit(1)
		}
		sopts := store.Options{Repair: true, NoSync: *nosync, Injector: injector}
		st, err := store.OpenOptions(filepath.Join(*storeDir, "results.log"), sopts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfpp-serve: store:", err)
			os.Exit(1)
		}
		defer st.Close()
		jr, err := store.OpenJournalOptions(filepath.Join(*storeDir, "sweeps.journal"), sopts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfpp-serve: journal:", err)
			os.Exit(1)
		}
		defer jr.Close()
		cfg.Store, cfg.Journal = st, jr
		ss, js := st.Stats(), jr.Stats()
		fmt.Printf("bfpp-serve: store %s: %d results, %d journaled sweeps (%d corruptions healed)\n",
			*storeDir, ss.Records, len(jr.Sweeps()), ss.CorruptionsRecovered+js.CorruptionsRecovered)
	}
	svc := service.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfpp-serve:", err)
		os.Exit(1)
	}
	// The resolved address line is load-bearing: with -addr :0 it is how
	// scripts (ci.sh's smoke test) learn the ephemeral port.
	fmt.Printf("bfpp-serve: listening on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: service.Handler(svc)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "bfpp-serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, let in-flight requests finish
	// within the drain budget, then force-close.
	fmt.Println("bfpp-serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "bfpp-serve: drain:", err)
		srv.Close()
		os.Exit(1)
	}
}
