package cli

import (
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/search"
)

func TestParseModel(t *testing.T) {
	for _, name := range []string{"52B", "52b", "6.6B", "6p6b", "gpt3", "GPT-3", "1T", "tiny"} {
		m, err := ParseModel(name)
		if err != nil {
			t.Errorf("%q: %v", name, err)
		}
		if m.Validate() != nil {
			t.Errorf("%q: invalid model returned", name)
		}
	}
	if _, err := ParseModel("banana"); err == nil {
		t.Error("unknown model should fail")
	}
}

func TestParseCluster(t *testing.T) {
	c, err := ParseCluster("paper")
	if err != nil || c.NumGPUs() != 64 {
		t.Errorf("paper cluster: %v, %d GPUs", err, c.NumGPUs())
	}
	c, err = ParseCluster("ethernet")
	if err != nil || c.InterNode.Name != "Ethernet" {
		t.Errorf("ethernet cluster: %v, link %q", err, c.InterNode.Name)
	}
	c, err = ParseCluster("4096")
	if err != nil || c.NumGPUs() != 4096 {
		t.Errorf("numeric cluster: %v, %d GPUs", err, c.NumGPUs())
	}
	for _, bad := range []string{"cloud", "-8", "0"} {
		if _, err := ParseCluster(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

// TestParseCostModel pins the one rule ParseCostModel adds to the cost
// registry: an empty or blank spelling selects the paper model as nil.
func TestParseCostModel(t *testing.T) {
	for _, blank := range []string{"", "  "} {
		if m, err := ParseCostModel(blank); m != nil || err != nil {
			t.Errorf("%q: got %v, %v; want nil, nil", blank, m, err)
		}
	}
	if m, err := ParseCostModel("Contended"); err != nil || m.Name() != "contended" {
		t.Errorf("Contended: got %v, %v", m, err)
	}
	if _, err := ParseCostModel("warp-speed"); err == nil {
		t.Error("unknown cost model should fail")
	}
}

func TestParseMethod(t *testing.T) {
	cases := map[string]core.Method{
		"gpipe":         core.GPipe,
		"1f1b":          core.OneFOneB,
		"df":            core.DepthFirst,
		"breadth-first": core.BreadthFirst,
		"np-df":         core.NoPipelineDF,
		"nopipeline":    core.NoPipelineBF,
	}
	for name, want := range cases {
		got, err := ParseMethod(name)
		if err != nil || got != want {
			t.Errorf("%q: got %v, %v", name, got, err)
		}
	}
	if _, err := ParseMethod("zigzag"); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestParseSharding(t *testing.T) {
	cases := map[string]core.Sharding{
		"dp0": core.DP0, "": core.DP0, "ps": core.DPPS, "dpfs": core.DPFS, "full": core.DPFS,
	}
	for name, want := range cases {
		got, err := ParseSharding(name)
		if err != nil || got != want {
			t.Errorf("%q: got %v, %v", name, got, err)
		}
	}
	if _, err := ParseSharding("half"); err == nil {
		t.Error("unknown sharding should fail")
	}
}

func TestParseFamily(t *testing.T) {
	cases := map[string]search.Family{
		"bf": search.FamilyBreadthFirst,
		"df": search.FamilyDepthFirst,
		"nl": search.FamilyNonLooped,
		"np": search.FamilyNoPipeline,
	}
	for name, want := range cases {
		got, err := ParseFamily(name)
		if err != nil || got != want {
			t.Errorf("%q: got %v, %v", name, got, err)
		}
	}
	if _, err := ParseFamily("xy"); err == nil {
		t.Error("unknown family should fail")
	}
}

func TestParseInts(t *testing.T) {
	got, err := ParseInts("8, 16,32")
	if err != nil || len(got) != 3 || got[0] != 8 || got[2] != 32 {
		t.Errorf("got %v, %v", got, err)
	}
	if _, err := ParseInts(""); err == nil {
		t.Error("empty list should fail")
	}
	if _, err := ParseInts("8,x"); err == nil {
		t.Error("bad integer should fail")
	}
}
