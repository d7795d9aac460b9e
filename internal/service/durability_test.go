package service

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"bfpp/internal/fault"
	"bfpp/internal/store"
)

// openStore opens a result store under the test's temp dir.
func openStore(t *testing.T, dir string) *store.File {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "results.log"))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// openJournal opens a sweep journal under the test's temp dir.
func openJournal(t *testing.T, dir string) *store.Journal {
	t.Helper()
	j, err := store.OpenJournal(filepath.Join(dir, "sweeps.journal"))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestStoreReadThroughAcrossRestart pins the crash-safety contract: a
// "restarted" service (fresh in-memory cache, same store file) serves the
// previously computed sweep from disk, byte-identical and marked Cached,
// without recomputing.
func TestStoreReadThroughAcrossRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	st := openStore(t, dir)
	first, err := New(Config{Store: st}).Search(ctx, smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Config{Store: st2})
	second, err := s2.Search(ctx, smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("restarted service recomputed instead of reading through the store")
	}
	if second.Table != first.Table {
		t.Errorf("store round-trip changed the table:\n--- first ---\n%s--- second ---\n%s", first.Table, second.Table)
	}
	if s2.storeHits.Load() != 1 {
		t.Errorf("storeHits = %d, want 1", s2.storeHits.Load())
	}
	// The store hit refilled the in-memory cache: a third request never
	// touches the store again.
	if _, err := s2.Search(ctx, smallReq()); err != nil {
		t.Fatal(err)
	}
	if got := s2.storeHits.Load(); got != 1 {
		t.Errorf("storeHits after cache refill = %d, want still 1", got)
	}
}

// TestStoreWriteFailureDegrades pins degraded-as-data: scripted store
// write faults never fail the request — the sweep is served, the write is
// dropped, and /healthz reports the store unhealthy.
func TestStoreWriteFailureDegrades(t *testing.T) {
	ctx := context.Background()
	inj := fault.NewScript(fault.Rule{
		Point: fault.StoreWrite, Times: 1 << 20,
		Fault: fault.Fault{Kind: fault.Error, Err: fault.InjectedError{Msg: "disk full"}},
	})
	st, err := store.OpenOptions(filepath.Join(t.TempDir(), "results.log"), store.Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Store: st})
	resp, err := s.Search(ctx, smallReq())
	if err != nil {
		t.Fatalf("store write failure failed the request: %v", err)
	}
	if resp.Table == "" {
		t.Error("empty table")
	}
	h := s.Health()
	if h.Store == nil || h.Store.OK {
		t.Errorf("health does not report the degraded store: %+v", h.Store)
	}
	if h.Status != "degraded" {
		t.Errorf("status = %q, want degraded", h.Status)
	}
	if h.Store.Stats.WriteErrors == 0 {
		t.Error("store write errors not counted")
	}
}

// TestNilStoreBitForBit pins the zero-cost default: a service without a
// store behaves exactly as before — same response, no store counters.
func TestNilStoreBitForBit(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()

	withStore, err := New(Config{Store: st}).Search(ctx, smallReq())
	if err != nil {
		t.Fatal(err)
	}
	without, err := New(Config{}).Search(ctx, smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if withStore.Table != without.Table {
		t.Error("store-backed and plain services disagree on the table")
	}
	if h := New(Config{}).Health(); h.Store != nil {
		t.Errorf("plain service health has durability sections: %+v", h)
	}
}

// TestJournalResumeByteIdentical is the service-level resume acceptance
// criterion: a sweep journaled to completion, then replayed from a
// journal holding only a prefix of its checkpoints, re-prices only the
// unfinished groups and produces the byte-identical table.
func TestJournalResumeByteIdentical(t *testing.T) {
	ctx := context.Background()
	req := smallReq()

	dir := t.TempDir()
	j1 := openJournal(t, dir)
	s1 := New(Config{Journal: j1})
	full, err := s1.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	_, key, err := resolveSearch(req)
	if err != nil {
		t.Fatal(err)
	}
	entries := j1.Entries(key)
	cells := 0
	for _, fr := range full.Families {
		cells += len(fr.Bests)
	}
	if len(entries) != cells {
		t.Fatalf("journaled %d checkpoints, want %d (one per table cell)", len(entries), cells)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// A "crashed" journal: only the first half of the checkpoints made it
	// to disk before the (simulated) kill.
	for _, take := range []int{0, len(entries) / 2, len(entries)} {
		dir2 := t.TempDir()
		j2 := openJournal(t, dir2)
		for _, blob := range entries[:take] {
			if err := j2.Append(key, blob); err != nil {
				t.Fatal(err)
			}
		}
		s2 := New(Config{Journal: j2})
		resumed, err := s2.Search(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Table != full.Table {
			t.Errorf("take=%d: resumed table differs:\n--- full ---\n%s--- resumed ---\n%s", take, full.Table, resumed.Table)
		}
		if take == len(entries) && resumed.Stats.Enumerated != 0 {
			t.Errorf("full resume still enumerated %d candidates", resumed.Stats.Enumerated)
		}
		if take > 0 && resumed.Stats.Enumerated >= full.Stats.Enumerated {
			t.Errorf("take=%d: resume did not shrink the search (%d >= %d enumerated)",
				take, resumed.Stats.Enumerated, full.Stats.Enumerated)
		}
		j2.Close()
	}
}

// TestMetricsEndpoint pins the Prometheus exposition: after one computed
// and one cached search against a store-backed service, /metrics carries
// the job, cache, store and pruning counters.
func TestMetricsEndpoint(t *testing.T) {
	ctx := context.Background()
	st := openStore(t, t.TempDir())
	defer st.Close()
	j := openJournal(t, t.TempDir())
	defer j.Close()
	s := New(Config{Store: st, Journal: j})
	if _, err := s.Search(ctx, smallReq()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(ctx, smallReq()); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	s.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"bfpp_jobs_in_flight 0",
		"bfpp_jobs_shed_total 0",
		"bfpp_search_requests_total 2",
		"bfpp_search_cache_hits_total 1",
		"bfpp_search_cache_misses_total 1",
		"bfpp_store_misses_total 1",
		"bfpp_store_writes_total 1",
		"bfpp_journal_writes_total",
		"bfpp_search_enumerated_total",
		`bfpp_search_family_enumerated_total{family="bf"}`,
		"# TYPE bfpp_jobs_in_flight gauge",
		"# TYPE bfpp_search_requests_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
