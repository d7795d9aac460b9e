package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one bfpp-serve process listening on a loopback port, with a
// durable store in its own directory.
type server struct {
	cmd    *exec.Cmd
	url    string
	dir    string
	client *http.Client
	exited chan error // receives the process' Wait result
	once   sync.Once
}

// startServer launches bfpp-serve with a fresh store and returns once it
// listens.
func startServer(ctx context.Context, bin, dir string) (*server, error) {
	if bin == "" {
		return nil, errors.New("no bfpp-serve binary given (-serve)")
	}
	if err := resetDir(dir); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", dir, "-store-nosync")
	// The server must not outlive the benchmark, even if the benchmark is
	// killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bfpp-serve: %w", err)
	}
	s := &server{
		cmd: cmd, dir: dir, exited: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}},
	}
	urls := make(chan string, 1)
	go func() {
		// Scan for the listening line, then drain the rest of the output
		// so the server never blocks on a full pipe; Wait once it closes.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, u, ok := strings.Cut(sc.Text(), "listening on "); ok {
				urls <- u
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		s.exited <- cmd.Wait()
	}()
	select {
	case s.url = <-urls:
		return s, nil
	case err := <-s.exited:
		s.exited <- err
		s.stop()
		return nil, fmt.Errorf("bfpp-serve exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, errors.New("bfpp-serve did not listen within 60s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
}

// stop shuts the server down gracefully (SIGTERM, then SIGKILL after a
// grace period), waits for it to exit and removes its store.
func (s *server) stop() {
	s.once.Do(func() {
		s.client.CloseIdleConnections()
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
		removeDir(s.dir)
	})
}

// resetDir makes dir an empty directory.
func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// removeDir deletes a scratch directory; a failure only leaves litter in
// the (ignored) build directory.
func removeDir(dir string) { _ = os.RemoveAll(dir) }

// post sends one request and returns the status, the body and the round
// trip time.
func (s *server) post(ctx context.Context, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(t0), err
}

// metrics scrapes /metrics into a name -> value map (labelled series are
// skipped; the self-check reads only plain counters).
func (s *server) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// peakRSSMB reads a process' peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}
