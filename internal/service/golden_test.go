package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenSearchRequests are the /v1/search requests whose structured winners
// testdata/golden_families.txt pins. Between them they cover every
// registered family with overlapped and non-overlapped implementations,
// DP-FS and DP-PS winners, the V-schedule's caps and the hybrid's sequence
// lengths, on the paper cost model and the calibrated one.
func goldenSearchRequests() []SearchRequest {
	return []SearchRequest{
		{Model: "52B", Cluster: "paper", Families: []string{"every"}, Batches: []int{8, 32, 128}},
		{Model: "52B", Cluster: "paper", Families: []string{"all"}, Batches: []int{512}},
		{Model: "GPT-3", Cluster: "512", CostModel: "calibrated", Families: []string{"every"}, Batches: []int{64, 256}},
	}
}

// goldenFamilies renders each golden request followed by its response's
// Families JSON, whose bests carry every engine.Result field bit for bit
// (encoding/json writes the shortest float that round-trips).
func goldenFamilies(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, req := range goldenSearchRequests() {
		resp, err := New(Config{}).Search(context.Background(), req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		rawReq, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		fams, err := json.MarshalIndent(resp.Families, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "request %s\n%s\n", rawReq, fams)
	}
	return b.String()
}

// TestGoldenSearchFamilies pins the bytes of the structured /v1/search
// winners — plan, batch time, throughput, utilization, the compute, pp and
// dp busy times, bubble, memory breakdown and config count of every
// family's per-batch best — so a change to how the simulation derives any
// Result field shows as a byte difference, not only as a table change.
func TestGoldenSearchFamilies(t *testing.T) {
	got := goldenFamilies(t)
	want, err := os.ReadFile("testdata/golden_families.txt")
	if err != nil {
		t.Fatalf("reading golden fixture: %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("families differ from golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
