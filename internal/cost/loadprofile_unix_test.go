//go:build unix

package cost

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestLoadProfileRefusesUnboundedReads pins that a calibrated:<path>
// spelling cannot stall or flood its caller: a FIFO (which blocks an open
// until a writer arrives) and a regular file over the 64 KiB cap both fail
// promptly.
func TestLoadProfileRefusesUnboundedReads(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "profile.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	defer unblockFIFO(fifo)
	// A valid profile padded past the cap with trailing whitespace, which
	// the JSON decoder would otherwise accept.
	big := filepath.Join(t.TempDir(), "big.json")
	raw, err := os.ReadFile(writeProfile(t, DefaultProfile()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(big, append(raw, strings.Repeat(" ", maxProfileBytes)...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{fifo, big} {
		done := make(chan error, 1)
		go func() {
			_, err := Registry.Lookup("calibrated:" + path)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: loaded, want an error", filepath.Base(path))
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: still loading after 5s", filepath.Base(path))
		}
	}
}

// unblockFIFO releases a reader stuck opening the FIFO: opening the write
// end and closing it hands the reader EOF.
func unblockFIFO(path string) {
	if f, err := os.OpenFile(path, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
		f.Close()
	}
}
