package figures

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bfpp/internal/cost"
	"bfpp/internal/search"
)

// Cheap artifacts run in full; the search-backed ones are covered by the
// search package tests and the benchmark harness.
func TestCheapArtifacts(t *testing.T) {
	cases := []struct {
		name string
		run  func() (string, error)
		want []string
	}{
		{"figure2", func() (string, error) { return Figure2(), nil },
			[]string{"looped 8x", "data-parallel", "without overlap"}},
		{"figure3", func() (string, error) { return Figure3(), nil },
			[]string{"GPU 0 | 0 4 8 12", "GPU 0 | 0 1 2 3"}},
		{"figure4", func() (string, error) { return Figure4(context.Background()) }, []string{"GPipe", "Breadth-first", "bubble"}},
		{"figure5", func() (string, error) { return Figure5(context.Background()) }, []string{"52B", "6.6B", "breadth-first"}},
		{"figure6", func() (string, error) { return Figure6(context.Background()) }, []string{"B=16", "B=64", "Nloop"}},
		{"figure9", func() (string, error) { return Figure9(context.Background()) }, []string{"DP-FS", "Breadth-first"}},
		{"table4.1", func() (string, error) { return Table41(), nil },
			[]string{"Chimera", "Breadth-first (DP-FS)"}},
		{"table5.1", func() (string, error) { return Table51(), nil },
			[]string{"52B", "6.6B", "8192"}},
		{"appendixB", func() (string, error) { return AppendixB(context.Background()) }, []string{"fit:", "McCandlish"}},
		{"appendixE-large", func() (string, error) { return AppendixELarge(context.Background(), Config{}) },
			[]string{"GPT-3", "1T", "pruning:", "Breadth-first", "V-schedule"}},
		{"extension-nextgen", func() (string, error) { return ExtensionNextGen(context.Background()) }, []string{"A100", "H100", "GPT-3"}},
	}
	for _, c := range cases {
		s, err := c.run()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(s, w) {
				t.Errorf("%s: missing %q in output:\n%s", c.name, w, s)
			}
		}
	}
}

// Figure 5's numbers must carry the paper's central ordering: breadth-first
// ahead of depth-first on every row.
func TestFigure5Ordering(t *testing.T) {
	s, err := Figure5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(s, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 5 || strings.Contains(line, "beta") {
			continue
		}
		bf, err1 := strconv.ParseFloat(fields[1], 64)
		df, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		rows++
		if bf <= df {
			t.Errorf("breadth-first (%v) should beat depth-first (%v): %s", bf, df, line)
		}
	}
	if rows < 8 {
		t.Errorf("parsed only %d data rows", rows)
	}
}

func TestGeneratorsComplete(t *testing.T) {
	want := []string{"figure1", "figure2", "figure3", "figure4", "figure5",
		"figure6", "figure7a", "figure7b", "figure7c", "figure8a", "figure8b",
		"figure8c", "figure9", "table4.1", "table5.1", "tableE1", "tableE2",
		"tableE3", "appendixB", "appendixE-large", "extension-nextgen",
		"extension-schedules"}
	gens := Generators(Config{})
	if len(gens) != len(want) {
		t.Fatalf("got %d generators, want %d", len(gens), len(want))
	}
	for i, g := range gens {
		if g.Name != want[i] {
			t.Errorf("generator %d = %q, want %q", i, g.Name, want[i])
		}
		if g.Run == nil {
			t.Errorf("generator %q has nil Run", g.Name)
		}
	}
}

func TestScenarioIndexErrors(t *testing.T) {
	if _, err := Figure7(context.Background(), 9, Config{}); err == nil {
		t.Error("out-of-range scenario should fail")
	}
	if _, err := Figure8(context.Background(), -1, Config{}); err == nil {
		t.Error("negative scenario should fail")
	}
	if _, err := TableE(context.Background(), 3, Config{}); err == nil {
		t.Error("out-of-range table should fail")
	}
}

// WriteAll is exercised with a stub directory on the cheap generators via
// the real function guarded by -short (the full run regenerates the search
// artifacts too).
func TestWriteAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full regeneration")
	}
	dir := t.TempDir()
	// Run only the cheap subset through the same file-writing path.
	for _, g := range Generators(Config{}) {
		switch g.Name {
		case "figure2", "figure3", "table4.1", "table5.1":
			s, err := g.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, g.Name+".txt"), []byte(s), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Errorf("wrote %d files, want 4", len(entries))
	}
}

// TestAppendixELargeHonorsConfig pins that the extended Appendix E artifact
// prices with the configured cost model and worker budget: the contended
// model changes its tables, and the worker count changes no byte.
func TestAppendixELargeHonorsConfig(t *testing.T) {
	ctx := context.Background()
	fams := []search.Family{search.FamilyBreadthFirst}
	paper, err := AppendixELarge(ctx, Config{Families: fams, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := AppendixELarge(ctx, Config{Families: fams, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if wide != paper {
		t.Errorf("artifact differs at 4 workers:\n%s\nvs 1 worker:\n%s", wide, paper)
	}
	cm, err := cost.Registry.Lookup("contended")
	if err != nil {
		t.Fatal(err)
	}
	contended, err := AppendixELarge(ctx, Config{Families: fams, Workers: 1, CostModel: cm})
	if err != nil {
		t.Fatal(err)
	}
	if contended == paper {
		t.Error("the contended cost model left the artifact identical to the paper model's")
	}
}
