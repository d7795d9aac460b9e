package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/search"
)

// postJSON posts a request body and decodes the JSON response.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

// TestHTTPSearchMatchesInProcess is the smoke test of the acceptance
// criteria: a server on an ephemeral port answers a small SearchRequest
// with a table byte-identical to the in-process search.Table output.
func TestHTTPSearchMatchesInProcess(t *testing.T) {
	srv := httptest.NewServer(Handler(New(Config{})))
	defer srv.Close()

	var got SearchResponse
	if code := postJSON(t, srv.URL+"/v1/search", smallReq(), &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	results, err := search.SweepAll(context.Background(), hw.PaperCluster(), model.Model6p6B(),
		search.Families(), []int{32, 64}, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := search.Table("Optimal configurations: 6.6B on 8xDGX-1 (64 GPUs)", results)
	if got.Table != want {
		t.Errorf("HTTP table differs from in-process table:\n--- http ---\n%s--- in-process ---\n%s", got.Table, want)
	}

	// The same request again is served from the cache, identically.
	var cached SearchResponse
	postJSON(t, srv.URL+"/v1/search", smallReq(), &cached)
	if !cached.Cached || cached.Table != want {
		t.Errorf("cache round-trip: cached=%v, tables equal=%v", cached.Cached, cached.Table == want)
	}
}

// TestHTTPStreamNDJSON asserts the streaming variant emits progress lines
// followed by exactly one terminal result line with the same table.
func TestHTTPStreamNDJSON(t *testing.T) {
	srv := httptest.NewServer(Handler(New(Config{})))
	defer srv.Close()

	raw, _ := json.Marshal(SearchRequest{Model: "6.6B", Cluster: "paper", Batches: []int{32}})
	resp, err := http.Post(srv.URL+"/v1/search?stream=1", "application/x-ndjson", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	type streamLine struct {
		Progress *search.ProgressSnapshot `json:"progress"`
		Result   *SearchResponse          `json:"result"`
		Error    string                   `json:"error"`
	}
	var results, progress int
	var last streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Result != nil:
			results++
		case line.Progress != nil:
			progress++
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if results != 1 {
		t.Fatalf("got %d result lines, want 1 (progress lines: %d)", results, progress)
	}
	if last.Result == nil {
		t.Fatal("the result must be the terminal line")
	}
	if !strings.Contains(last.Result.Table, "Breadth-first") {
		t.Errorf("streamed table incomplete:\n%s", last.Result.Table)
	}
}

// TestHTTPErrors maps failure classes onto status codes.
func TestHTTPErrors(t *testing.T) {
	srv := httptest.NewServer(Handler(New(Config{})))
	defer srv.Close()

	var errResp map[string]string
	if code := postJSON(t, srv.URL+"/v1/search",
		SearchRequest{Model: "banana", Cluster: "paper", Batches: []int{8}}, &errResp); code != http.StatusBadRequest {
		t.Errorf("unknown model: status %d", code)
	}
	if !strings.Contains(errResp["error"], "52B") {
		t.Errorf("error should list registered models: %q", errResp["error"])
	}
	// A deadline that fires mid-sweep either times out (nothing simulated
	// yet -> 504) or degrades into a 200 with "partial": true; a complete
	// 200 is the one impossible outcome for a 1ms budget.
	var timedOut SearchResponse
	switch code := postJSON(t, srv.URL+"/v1/search",
		SearchRequest{Model: "52B", Cluster: "paper", Batches: []int{8, 16, 32}, NoPrune: true, TimeoutMS: 1},
		&timedOut); code {
	case http.StatusGatewayTimeout:
	case http.StatusOK:
		if !timedOut.Partial {
			t.Error("deadline: 200 without partial flag")
		}
	default:
		t.Errorf("deadline: status %d", code)
	}
	resp, err := http.Get(srv.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d", resp.StatusCode)
	}
	// Unknown fields are rejected: a typo'd request must not silently run
	// something else.
	resp2, err := http.Post(srv.URL+"/v1/search", "application/json",
		strings.NewReader(`{"model":"6.6B","cluster":"paper","batchez":[32]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", resp2.StatusCode)
	}
}

// TestHTTPSimulateRejectsOversizedPlans: a /v1/simulate plan whose sizes
// overflow int or whose programs would exceed core.MaxComputeOps is the
// caller's error (400), reported by Plan.Validate, which the simulation
// runs before it generates any program.
func TestHTTPSimulateRejectsOversizedPlans(t *testing.T) {
	srv := httptest.NewServer(Handler(New(Config{})))
	defer srv.Close()
	for _, c := range []struct {
		p    core.Plan
		want string
	}{
		{core.Plan{Method: core.BreadthFirst, DP: 1, PP: 1 << 32, TP: 1, MicroBatch: 1, NumMicro: 1 << 32, Loops: 1 << 32}, "overflows"},
		{core.Plan{Method: core.BreadthFirst, DP: 1 << 62, PP: 2, TP: 2, MicroBatch: 1, NumMicro: 2, Loops: 1}, "overflows"},
		{core.Plan{Method: core.NoPipelineBF, DP: 1, PP: 1, TP: 1, MicroBatch: 1, NumMicro: 1 << 40, Loops: 64}, "compute ops"},
	} {
		var errResp map[string]string
		code := postJSON(t, srv.URL+"/v1/simulate", SimulateRequest{Model: "52B", Cluster: "paper", Plan: c.p}, &errResp)
		if code != http.StatusBadRequest || !strings.Contains(errResp["error"], c.want) {
			t.Errorf("%v: status %d, error %q; want 400 and an error containing %q", c.p, code, errResp["error"], c.want)
		}
	}
}

// TestHTTPHealthz pins the liveness probe.
func TestHTTPHealthz(t *testing.T) {
	srv := httptest.NewServer(Handler(New(Config{})))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
}

// TestHTTPRegistryAddedScenario is the open-registry acceptance check: a
// model and a cluster registered at runtime round-trip through the HTTP
// surface with no code changes outside the registration calls.
func TestHTTPRegistryAddedScenario(t *testing.T) {
	if _, err := model.Registry.Lookup("http-ext-model"); err != nil { // idempotent under -count>1
		model.Registry.Register("http-ext-model", func() model.Transformer {
			m := model.Tiny()
			m.Name = "http-ext-model"
			return m
		})
		hw.Registry.Register("http-ext-cluster", func() hw.Cluster {
			c := hw.PaperCluster()
			c.Name = "http-ext-cluster"
			c.Nodes = 2
			return c
		})
	}
	srv := httptest.NewServer(Handler(New(Config{})))
	defer srv.Close()

	var got SearchResponse
	if code := postJSON(t, srv.URL+"/v1/search", SearchRequest{
		Model: "http-ext-model", Cluster: "http-ext-cluster", Batches: []int{16},
	}, &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(got.Title, "http-ext-model on http-ext-cluster (16 GPUs)") {
		t.Errorf("title = %q", got.Title)
	}
	feasible := false
	for _, fr := range got.Families {
		if len(fr.Bests) > 0 {
			feasible = true
		}
	}
	if !feasible {
		t.Errorf("registry-added scenario produced no winners:\n%s", got.Table)
	}
}
