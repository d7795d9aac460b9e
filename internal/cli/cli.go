// Package cli provides the flag-parsing helpers shared by the bfpp command
// line tools: model, cluster, method and sharding lookups, and batch-size
// list parsing.
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"bfpp/internal/core"
	"bfpp/internal/cost"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/search"
)

// ParseModel resolves a model name through model.Registry, so models
// registered there parse without touching this package.
func ParseModel(name string) (model.Transformer, error) { return model.Registry.Lookup(name) }

// ParseCluster resolves a cluster spelling through hw.Registry: fixed names
// first, then the patterns (a bare GPU count builds a LargeCluster).
func ParseCluster(name string) (hw.Cluster, error) { return hw.Registry.Lookup(name) }

// ParseCostModel resolves a cost-model spelling through cost.Registry; an
// empty spelling selects the default paper model as a nil Model.
func ParseCostModel(name string) (cost.Model, error) {
	if strings.TrimSpace(name) == "" {
		return nil, nil
	}
	return cost.Registry.Lookup(name)
}

// ParseMethod resolves a schedule name through the method registry, so
// registered extension schedules (ws-1f1b, v-schedule, hybrid, ...) parse
// without touching this package.
func ParseMethod(name string) (core.Method, error) {
	if m, ok := core.MethodByName(name); ok {
		return m, nil
	}
	names := make([]string, 0, 8)
	for _, m := range core.Methods() {
		names = append(names, strings.ToLower(m.String()))
	}
	return 0, fmt.Errorf("unknown method %q (%s)", name, strings.Join(names, ", "))
}

// ParseMethods resolves a comma-separated schedule-name list.
func ParseMethods(s string) ([]core.Method, error) {
	var out []core.Method
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m, err := ParseMethod(part)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty method list %q", s)
	}
	return out, nil
}

// ParseSharding resolves a sharding-mode name.
func ParseSharding(name string) (core.Sharding, error) {
	switch strings.ToLower(name) {
	case "dp0", "none", "":
		return core.DP0, nil
	case "dpps", "ps", "partial":
		return core.DPPS, nil
	case "dpfs", "fs", "full":
		return core.DPFS, nil
	default:
		return 0, fmt.Errorf("unknown sharding %q (dp0, dpps, dpfs)", name)
	}
}

// ParseFamily resolves a method family from its registry key ("bf") or a
// legacy long name ("breadth-first").
func ParseFamily(name string) (search.Family, error) {
	key := strings.ToLower(name)
	switch key {
	// Legacy long spellings of the paper families.
	case "breadth-first":
		key = "bf"
	case "depth-first":
		key = "df"
	case "non-looped":
		key = "nl"
	case "no-pipeline":
		key = "np"
	}
	if f, ok := search.FamilyByKey(key); ok {
		return f, nil
	}
	keys := make([]string, 0, 8)
	for _, f := range search.AllFamilies() {
		keys = append(keys, f.Info().Key)
	}
	return 0, fmt.Errorf("unknown family %q (%s)", name, strings.Join(keys, ", "))
}

// ParseFamilies resolves a comma-separated family-key list; "all" selects
// the paper's Figure 7 families and "every" all registered families
// (including the extension schedules).
func ParseFamilies(s string) ([]search.Family, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "all", "":
		return search.Families(), nil
	case "every":
		return search.AllFamilies(), nil
	}
	var out []search.Family
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := ParseFamily(part)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty family list %q", s)
	}
	return out, nil
}

// FamiliesForMethods maps methods to their containing families (one entry
// per family, in method order), powering the -methods selection flags.
func FamiliesForMethods(methods []core.Method) ([]search.Family, error) {
	var out []search.Family
	seen := map[search.Family]bool{}
	for _, m := range methods {
		f, ok := search.FamilyOf(m)
		if !ok {
			return nil, fmt.Errorf("method %v is in no search family", m)
		}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out, nil
}

// ParseInts parses a comma-separated integer list.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", part, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty integer list %q", s)
	}
	return out, nil
}
