//go:build unix

package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"bfpp/internal/core"
	"bfpp/internal/cost"
)

// TestHTTPUnboundedProfilePathIs400 pins that a calibrated:<path> cost
// model cannot stall or flood the server: a FIFO (whose open blocks until
// a writer arrives) and a profile over the 64 KiB cap each answer 400
// promptly on /v1/search, /v1/simulate and /v1/figures.
func TestHTTPUnboundedProfilePathIs400(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "profile.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	raw, err := json.Marshal(cost.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	big := filepath.Join(t.TempDir(), "big.json")
	if err := os.WriteFile(big, append(raw, bytes.Repeat([]byte(" "), 64<<10)...), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(New(Config{})))
	defer srv.Close()
	// Runs before srv.Close: a handler stuck opening the FIFO gets EOF.
	defer func() {
		if f, err := os.OpenFile(fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
			f.Close()
		}
	}()
	client := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{fifo, big} {
		cm := "calibrated:" + path
		for endpoint, req := range map[string]any{
			"/v1/search": SearchRequest{Model: "6.6B", Cluster: "paper", Batches: []int{32}, CostModel: cm},
			"/v1/simulate": SimulateRequest{Model: "tiny", Cluster: "paper", CostModel: cm,
				Plan: core.Plan{Method: core.GPipe, DP: 1, PP: 2, TP: 1, MicroBatch: 1, NumMicro: 2, Loops: 1}},
			"/v1/figures": FigureRequest{Names: []string{"figure7a"}, CostModel: cm},
		} {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Post(srv.URL+endpoint, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("%s %s: %v", endpoint, filepath.Base(path), err)
				continue
			}
			var out struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, "load profile") {
				t.Errorf("%s %s: status %d (%s), want 400 naming the profile load", endpoint, filepath.Base(path), resp.StatusCode, out.Error)
			}
		}
	}
}
