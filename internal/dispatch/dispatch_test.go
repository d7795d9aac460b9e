package dispatch

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bfpp/internal/fault"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/search"
	"bfpp/internal/service"
)

// testRequest is the sweep the equivalence tests distribute: the paper
// testbed with one infeasible batch (1), so the merge also covers absent
// groups.
func testRequest() service.SearchRequest {
	return service.SearchRequest{
		Model:    "6.6B",
		Cluster:  "paper",
		Families: []string{"every"},
		Batches:  []int{1, 32, 64, 128},
	}
}

// testGroups expands the request into its (family, batch) group keys, the
// shape the service hands to Sharder.Dispatch.
func testGroups(req service.SearchRequest) []search.GroupKey {
	var out []search.GroupKey
	for _, f := range search.AllFamilies() {
		for _, b := range req.Batches {
			out = append(out, search.GroupKey{Family: f.Info().Key, Batch: b})
		}
	}
	return out
}

// assemble builds the family->bests map a dispatched sweep yields, in
// batch order, mirroring the service's merge.
func assemble(groups []search.GroupKey, winners map[search.GroupKey]search.Best) map[search.Family][]search.Best {
	out := map[search.Family][]search.Best{}
	for _, g := range groups {
		best, ok := winners[g]
		if !ok {
			continue
		}
		f, _ := search.FamilyByKey(g.Family)
		out[f] = append(out[f], best)
	}
	return out
}

// referenceTable is the single-process sweep the distributed runs must
// reproduce byte for byte.
func referenceTable(t *testing.T) string {
	t.Helper()
	c := hw.PaperCluster()
	m := model.Model6p6B()
	ref, err := search.SweepAll(context.Background(), c, m, search.AllFamilies(),
		[]int{1, 32, 64, 128}, search.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return search.Table("dispatch", ref)
}

// fastRetry keeps the chaos tests quick: 2 attempts, 1ms backoff.
func fastRetry() service.RetryPolicy {
	return service.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, Multiplier: 2, MaxDelay: 10 * time.Millisecond}
}

// TestDispatchMatchesLocalSweep pins the fault-free merge: three local
// replicas racing over the shared queue produce the byte-identical table.
func TestDispatchMatchesLocalSweep(t *testing.T) {
	want := referenceTable(t)
	co := New(Options{Retry: fastRetry()},
		&Local{ID: "r0", Workers: 2}, &Local{ID: "r1", Workers: 2}, &Local{ID: "r2", Workers: 2})
	req := testRequest()
	groups := testGroups(req)
	winners, err := co.Dispatch(context.Background(), req, groups)
	if err != nil {
		t.Fatal(err)
	}
	if got := search.Table("dispatch", assemble(groups, winners)); got != want {
		t.Errorf("dispatched table differs from single-process sweep:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if d, f := co.Stats(); f != 0 || d != int64(len(groups)) {
		t.Errorf("stats: dispatched=%d failovers=%d, want %d/0", d, f, len(groups))
	}
	for _, h := range co.Health(context.Background()) {
		if !h.OK || h.Err != "" {
			t.Errorf("replica %s unexpectedly unhealthy: %+v", h.Name, h)
		}
	}
}

// TestDispatchReplicaFaultByteIdentical is the chaos acceptance criterion:
// scripted replica faults mid-sweep — a persistent error on one replica, a
// panic on another — fail over, and the merged table stays byte-identical
// to the fault-free single-process run. Run under -race, this also pins
// the coordinator's synchronization.
func TestDispatchReplicaFaultByteIdentical(t *testing.T) {
	want := referenceTable(t)
	req := testRequest()
	groups := testGroups(req)
	inj := fault.NewScript(
		// Replica 0 fails every dispatch attempt it ever makes: it prices
		// nothing and every group it touches fails over.
		fault.Rule{Point: fault.Replica, Coords: []int{0}, Times: 1 << 20,
			Fault: fault.Fault{Kind: fault.Error, Err: fault.InjectedError{Msg: "replica 0 crashed"}}},
		// Replica 1 panics pricing its first group (contained, failed over).
		fault.Rule{Point: fault.Replica, Coords: []int{1}, Times: 1,
			Fault: fault.Fault{Kind: fault.Panic}},
	)
	co := New(Options{Retry: fastRetry(), Injector: inj},
		&Local{ID: "r0", Workers: 2}, &Local{ID: "r1", Workers: 2}, &Local{ID: "r2", Workers: 2})
	winners, err := co.Dispatch(context.Background(), req, groups)
	if err != nil {
		t.Fatal(err)
	}
	if got := search.Table("dispatch", assemble(groups, winners)); got != want {
		t.Errorf("faulted dispatch table differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if _, f := co.Stats(); f < 2 {
		t.Errorf("failovers = %d, want >= 2 (replica 0 died, replica 1 panicked)", f)
	}
	// Health reports the failovers as data on probe-healthy replicas.
	var noted int
	for _, h := range co.Health(context.Background()) {
		if h.OK && strings.Contains(h.Err, "failed over") {
			noted++
		}
	}
	if noted == 0 {
		t.Error("no replica carries its failover note in Health")
	}
}

// TestDispatchTransientFaultRetriesInPlace pins the retry tier under the
// failover tier: a fault that clears within the retry budget never marks
// the replica down.
func TestDispatchTransientFaultRetriesInPlace(t *testing.T) {
	want := referenceTable(t)
	req := testRequest()
	groups := testGroups(req)
	inj := fault.NewScript(
		// One transient failure on replica 0's first group: the second
		// attempt (same replica) succeeds.
		fault.Rule{Point: fault.Replica, Coords: []int{0}, Times: 1,
			Fault: fault.Fault{Kind: fault.Error, Err: fault.InjectedError{Msg: "blip"}}},
	)
	co := New(Options{Retry: fastRetry(), Injector: inj},
		&Local{ID: "r0", Workers: 2}, &Local{ID: "r1", Workers: 2})
	winners, err := co.Dispatch(context.Background(), req, groups)
	if err != nil {
		t.Fatal(err)
	}
	if got := search.Table("dispatch", assemble(groups, winners)); got != want {
		t.Errorf("table differs after in-place retry:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if _, f := co.Stats(); f != 0 {
		t.Errorf("failovers = %d, want 0 (the retry should have absorbed the blip)", f)
	}
	if inj.Fired() != 1 {
		t.Errorf("injected faults fired = %d, want 1", inj.Fired())
	}
}

// TestDispatchAllReplicasDead pins the dead-end contract: when every
// replica faults, Dispatch reports it instead of hanging.
func TestDispatchAllReplicasDead(t *testing.T) {
	inj := fault.NewScript(
		fault.Rule{Point: fault.Replica, Times: 1 << 20,
			Fault: fault.Fault{Kind: fault.Error, Err: fault.InjectedError{Msg: "site outage"}}},
	)
	co := New(Options{Retry: fastRetry(), Injector: inj},
		&Local{ID: "r0"}, &Local{ID: "r1"})
	req := testRequest()
	done := make(chan error, 1)
	go func() {
		_, err := co.Dispatch(context.Background(), req, testGroups(req))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "all 2 replicas failed") {
			t.Fatalf("err = %v, want all-replicas-failed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Dispatch hung with every replica dead")
	}
}

// TestDispatchCancellation pins that a cancelled sweep context surfaces
// as ctx.Err(), not as a replica fault.
func TestDispatchCancellation(t *testing.T) {
	co := New(Options{Retry: fastRetry()}, &Local{ID: "r0", Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := testRequest()
	_, err := co.Dispatch(ctx, req, testGroups(req))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDispatchHTTPReplica runs the full remote shape: a second bfpp-serve
// behind httptest prices shards alongside a local executor, and the merged
// table is byte-identical. The HTTP replica exercises the same /v1/search
// endpoint real deployments use.
func TestDispatchHTTPReplica(t *testing.T) {
	want := referenceTable(t)
	srv := httptest.NewServer(service.Handler(service.New(service.Config{})))
	defer srv.Close()
	remote := &HTTP{BaseURL: srv.URL}
	if err := remote.Check(context.Background()); err != nil {
		t.Fatalf("healthz probe: %v", err)
	}
	co := New(Options{Retry: fastRetry()}, remote, &Local{ID: "local", Workers: 2})
	req := testRequest()
	groups := testGroups(req)
	winners, err := co.Dispatch(context.Background(), req, groups)
	if err != nil {
		t.Fatal(err)
	}
	if got := search.Table("dispatch", assemble(groups, winners)); got != want {
		t.Errorf("HTTP-replica table differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestDispatchHTTPReplicaDownFailsOver points one replica at a dead
// server: its dispatches fail over to the local survivor and the table is
// still byte-identical.
func TestDispatchHTTPReplicaDownFailsOver(t *testing.T) {
	want := referenceTable(t)
	srv := httptest.NewServer(service.Handler(service.New(service.Config{})))
	srv.Close() // a replica that is already gone
	dead := &HTTP{BaseURL: srv.URL}
	if err := dead.Check(context.Background()); err == nil {
		t.Fatal("dead replica passed its health probe")
	}
	co := New(Options{Retry: fastRetry()}, dead, &Local{ID: "local", Workers: 2})
	req := testRequest()
	groups := testGroups(req)
	winners, err := co.Dispatch(context.Background(), req, groups)
	if err != nil {
		t.Fatal(err)
	}
	if got := search.Table("dispatch", assemble(groups, winners)); got != want {
		t.Errorf("table differs after dead-replica failover:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if _, f := co.Stats(); f != 1 {
		t.Errorf("failovers = %d, want 1", f)
	}
}

// TestShardedServiceHonorsCostModel pins that replicas price groups under
// the request's cost model: a Sharder-backed service must return the
// in-process service's table byte for byte for a non-default model, which
// on this scenario picks different Depth-first winners than the paper
// model.
func TestShardedServiceHonorsCostModel(t *testing.T) {
	ctx := context.Background()
	req := service.SearchRequest{Model: "6.6B", Cluster: "ethernet",
		CostModel: "contended", Batches: []int{32, 64}}
	want, err := service.New(service.Config{}).Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	paper := req
	paper.CostModel = "paper"
	if p, err := service.New(service.Config{}).Search(ctx, paper); err != nil {
		t.Fatal(err)
	} else if p.Table == want.Table {
		t.Fatal("the contended table equals the paper one: the scenario cannot tell the models apart")
	}
	sharded := service.New(service.Config{Sharder: New(Options{Retry: fastRetry()},
		&Local{ID: "r0", Workers: 2})})
	got, err := sharded.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != want.Table {
		t.Errorf("sharded table differs from the in-process one:\n--- in process ---\n%s--- sharded ---\n%s", want.Table, got.Table)
	}
}
