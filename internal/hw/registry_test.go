package hw

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestRegistryCoversAllClusters asserts the built-in testbeds and the
// LargeCluster pattern are reachable through the registry and build the
// same clusters as the constructors.
func TestRegistryCoversAllClusters(t *testing.T) {
	cases := map[string]Cluster{
		"paper":    PaperCluster(),
		"ethernet": PaperClusterEthernet(),
		"512":      LargeCluster(512),
	}
	for name, want := range cases {
		got, err := Registry.Lookup(name)
		if err != nil {
			t.Errorf("%q: %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("%q: registry builds %+v, constructor builds %+v", name, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%q: registered cluster invalid: %v", name, err)
		}
	}
	names := Registry.Names()
	for _, want := range []string{"paper", "ethernet", "<gpu-count>"} {
		if !slices.Contains(names, want) {
			t.Errorf("Names() = %v is missing %q", names, want)
		}
	}
}

// TestClusterAliasRoundTrip asserts the built-in aliases and case variants
// build the same cluster as the constructor.
func TestClusterAliasRoundTrip(t *testing.T) {
	cases := map[string]func() Cluster{
		"infiniband": PaperCluster, "InfiniBand": PaperCluster, "ib": PaperCluster,
		"IB": PaperCluster, "PAPER": PaperCluster,
		"eth": PaperClusterEthernet, "ETH": PaperClusterEthernet, "Ethernet": PaperClusterEthernet,
	}
	for alias, build := range cases {
		got, err := Registry.Lookup(alias)
		if err != nil {
			t.Errorf("alias %q: %v", alias, err)
			continue
		}
		if want := build(); got != want {
			t.Errorf("alias %q built %q, constructor builds %q", alias, got.Name, want.Name)
		}
	}
}

// TestPatternLookup pins the GPU-count pattern: positive counts build
// LargeCluster(n), junk and absurd counts do not resolve.
func TestPatternLookup(t *testing.T) {
	for _, n := range []int{1, 8, 512, 2048, 4096} {
		got, err := Registry.Lookup(strconv.Itoa(n))
		if err != nil || got != LargeCluster(n) {
			t.Errorf("%d: %v, %d GPUs", n, err, got.NumGPUs())
		}
	}
	for _, bad := range []string{"", "0", "-8", "12x", "cloud", "99999999999999999999"} {
		if _, err := Registry.Lookup(bad); err == nil {
			t.Errorf("%q should not resolve", bad)
		}
	}
}

// TestDuplicateClusterRegisterPanics asserts the cluster table refuses
// registrations that collide with a built-in spelling, for both fixed
// names and patterns, or that are empty or nil.
func TestDuplicateClusterRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s: expected panic", name)
			} else if msg, _ := r.(string); !strings.Contains(msg, "registered") {
				t.Errorf("%s: unexpected panic message %v", name, r)
			}
		}()
		fn()
	}
	mustPanic("duplicate name", func() { Registry.Register("paper", PaperCluster) })
	mustPanic("duplicate via alias", func() { Registry.Register("ib", PaperCluster) })
	mustPanic("duplicate pattern", func() {
		Registry.RegisterPattern("<gpu-count>", func(string) (Cluster, bool, error) { return Cluster{}, false, nil })
	})
	mustPanic("empty name", func() { Registry.Register("", PaperCluster) })
	mustPanic("nil constructor", func() { Registry.Register("fresh-cluster", nil) })
	mustPanic("nil parser", func() { Registry.RegisterPattern("<fresh>", nil) })
	if got, err := Registry.Lookup("512"); err != nil || got != LargeCluster(512) {
		t.Errorf("after the panics 512 resolves to %q, %v", got.Name, err)
	}
}

// TestRegisterClusterExtension registers a throwaway cluster and asserts
// it resolves — the extension recipe in README.md.
func TestRegisterClusterExtension(t *testing.T) {
	if _, err := Registry.Lookup("test-a100"); err != nil { // idempotent under -count>1
		Registry.Register("test-a100", func() Cluster {
			c := PaperCluster()
			c.Name = "test-a100"
			c.GPU = A100()
			return c
		})
	}
	c, err := Registry.Lookup("TEST-A100")
	if err != nil || c.GPU.Name != A100().Name {
		t.Fatalf("extension lookup: %v, %+v", err, c.GPU)
	}
}
