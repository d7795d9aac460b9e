package service

import (
	"fmt"
	"io"

	"bfpp/internal/search"
	"bfpp/internal/store"
)

// aggregate folds one completed sweep's final counter snapshot into the
// service's lifetime pruning totals, the source for /metrics. FamilyStats
// counters are atomic, so concurrent sweeps fold in without a lock.
func (s *Service) aggregate(snap search.ProgressSnapshot) {
	fold := func(fs *search.FamilyStats, p search.FamilyProgress) {
		fs.Enumerated.Add(p.Enumerated)
		fs.BoundSkipped.Add(p.BoundedOut)
		fs.Simulated.Add(p.Simulated)
		fs.FlooredOut.Add(p.FlooredOut)
		fs.ReplayPriced.Add(p.ReplayPriced)
	}
	fold(&s.agg.FamilyStats, search.FamilyProgress{
		Enumerated:   snap.Enumerated,
		BoundedOut:   snap.BoundedOut,
		Simulated:    snap.Simulated,
		FlooredOut:   snap.FlooredOut,
		ReplayPriced: snap.ReplayPriced,
	})
	for _, p := range snap.Families {
		fold(s.agg.Family(p.Key), p)
	}
}

// WriteMetrics emits the service's counters in the Prometheus text
// exposition format (version 0.0.4): job-slot load, load sheds, the
// search cache and durable-store hit rates, store/journal durability
// counters, and the lifetime pruning-cascade totals (overall and per
// family). It reads raw counters only — no locks held across I/O — so a
// scrape is cheap at any load.
func (s *Service) WriteMetrics(w io.Writer) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("bfpp_jobs_in_flight", "Jobs currently holding a slot.", s.inFlight.Load())
	gauge("bfpp_jobs_max", "Configured job-slot bound (Config.MaxJobs).", int64(s.cfg.MaxJobs))
	gauge("bfpp_jobs_queued", "Requests parked waiting for a job slot.", s.queued.Load())
	counter("bfpp_jobs_shed_total", "Requests rejected with 429 (queue full).", s.shed.Load())

	counter("bfpp_search_requests_total", "Search requests admitted past request resolution.", s.searches.Load())
	counter("bfpp_search_cache_hits_total", "Searches served from the in-memory result cache.", s.cacheHits.Load())
	counter("bfpp_search_cache_misses_total", "Searches that missed the in-memory result cache.", s.cacheMisses.Load())
	counter("bfpp_store_hits_total", "Searches served from the durable store (read-through).", s.storeHits.Load())
	counter("bfpp_store_misses_total", "Durable-store lookups that missed.", s.storeMisses.Load())
	counter("bfpp_journal_append_errors_total", "Sweep checkpoints dropped by journal write failures.", s.journalErrs.Load())

	if s.cfg.Store != nil {
		s.writeStoreStats(w, "bfpp_store", "result store", s.cfg.Store.Stats())
	}
	if s.cfg.Journal != nil {
		s.writeStoreStats(w, "bfpp_journal", "sweep journal", s.cfg.Journal.Stats())
	}

	s.writePruneStats(w)
}

// writeStoreStats emits one append-only log's durability counters under a
// metric prefix.
func (s *Service) writeStoreStats(w io.Writer, prefix, what string, st store.Stats) {
	emit := func(suffix, typ, help string, v int64) {
		name := prefix + suffix
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
	}
	emit("_records", "gauge", "Live records in the "+what+".", st.Records)
	emit("_reads_total", "counter", "Reads served by the "+what+".", st.Reads)
	emit("_writes_total", "counter", "Records appended to the "+what+".", st.Writes)
	emit("_write_errors_total", "counter", "Failed appends to the "+what+" (degraded).", st.WriteErrors)
	emit("_corruptions_recovered_total", "counter", "Torn or corrupt frames truncated from the "+what+" at open.", st.CorruptionsRecovered)
}

// pruneMetrics maps the pruning-cascade counters onto metric names, in
// emission order.
var pruneMetrics = []struct {
	suffix string
	help   string
	load   func(*search.FamilyStats) int64
}{
	{"enumerated_total", "Candidate plans entering the work list.", func(fs *search.FamilyStats) int64 { return fs.Enumerated.Load() }},
	{"bound_skipped_total", "Candidates skipped on the throughput upper bound.", func(fs *search.FamilyStats) int64 { return fs.BoundSkipped.Load() }},
	{"simulated_total", "Candidates that reached the discrete-event simulator.", func(fs *search.FamilyStats) int64 { return fs.Simulated.Load() }},
	{"floored_out_total", "Bound skips won by the tier-1 floor alone.", func(fs *search.FamilyStats) int64 { return fs.FlooredOut.Load() }},
	{"replay_priced_total", "Tier-2 exact replays paid.", func(fs *search.FamilyStats) int64 { return fs.ReplayPriced.Load() }},
}

// writePruneStats emits the lifetime pruning totals: one unlabeled series
// per counter, plus a family-labeled breakdown.
func (s *Service) writePruneStats(w io.Writer) {
	keys := s.agg.FamilyKeys()
	for _, m := range pruneMetrics {
		name := "bfpp_search_" + m.suffix
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, m.help, name, name, m.load(&s.agg.FamilyStats))
		if len(keys) == 0 {
			continue
		}
		fname := "bfpp_search_family_" + m.suffix
		fmt.Fprintf(w, "# HELP %s Per-family breakdown: %s\n# TYPE %s counter\n", fname, m.help, fname)
		for _, key := range keys {
			fmt.Fprintf(w, "%s{family=%q} %d\n", fname, key, m.load(s.agg.Family(key)))
		}
	}
}
