package registry

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestTableContract pins what every scenario axis (models, clusters, cost
// models) relies on: case-insensitive names and aliases, fixed names ahead
// of patterns, patterns in registration order, a matched pattern's payload
// error reported as such, unknown spellings listing every registered one,
// loud registration bugs that publish nothing, and lookups that are safe
// to run while registrations happen.
func TestTableContract(t *testing.T) {
	tab := New[string]("thing")
	tab.Register("alpha", func() string { return "A" }, "a1")
	tab.Register("Beta", func() string { return "B" })
	tab.Register("num:7", func() string { return "fixed seven" })
	tab.RegisterPattern("num:<n>", func(s string) (string, bool, error) {
		payload, ok := strings.CutPrefix(s, "num:")
		if !ok {
			return "", false, nil
		}
		if _, err := strconv.Atoi(payload); err != nil {
			return "", true, errors.New("bad count")
		}
		return "num=" + payload, true, nil
	})
	tab.RegisterPattern("<ends-in-7>", func(s string) (string, bool, error) {
		return "seven", strings.HasSuffix(s, "7"), nil
	})

	for spelling, want := range map[string]string{
		"alpha": "A", "ALPHA": "A", "a1": "A", "A1": "A", "beta": "B", "BETA": "B",
		"num:7":  "fixed seven", // a fixed name wins over both patterns
		"NUM:7":  "fixed seven",
		"num:17": "num=17", // both patterns accept it: the first registered wins
		"x7":     "seven",
	} {
		if got, err := tab.Lookup(spelling); err != nil || got != want {
			t.Errorf("Lookup(%q) = %q, %v; want %q", spelling, got, err, want)
		}
	}
	// A matched pattern with a bad payload is that pattern's error, even
	// when a later pattern would accept the spelling.
	if got, err := tab.Lookup("num:z7"); err == nil || !strings.Contains(err.Error(), "bad count") ||
		strings.Contains(err.Error(), "unknown") {
		t.Errorf("Lookup(num:z7) = %q, %v; want the payload error", got, err)
	}
	names := []string{"alpha", "Beta", "num:7", "num:<n>", "<ends-in-7>"}
	_, err := tab.Lookup("nope")
	if err == nil || !strings.Contains(err.Error(), `unknown thing "nope"`) {
		t.Errorf("Lookup(nope) error = %v", err)
	}
	for _, n := range names {
		if err == nil || !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-spelling error %v does not list %q", err, n)
		}
	}
	if got := tab.Names(); !slices.Equal(got, names) {
		t.Errorf("Names() = %v, want %v", got, names)
	}
	if got := tab.FixedNames(); !slices.Equal(got, names[:3]) {
		t.Errorf("FixedNames() = %v, want %v", got, names[:3])
	}

	// Registration bugs panic and leave the table as it was.
	build := func() string { return "X" }
	parse := func(string) (string, bool, error) { return "", false, nil }
	for what, register := range map[string]func(){
		"empty name":           func() { tab.Register("", build) },
		"empty alias":          func() { tab.Register("gamma", build, "") },
		"nil constructor":      func() { tab.Register("gamma", nil) },
		"duplicate name":       func() { tab.Register("alpha", build) },
		"duplicate via case":   func() { tab.Register("ALPHA", build) },
		"alias on a name":      func() { tab.Register("gamma", build, "beta") },
		"name on an alias":     func() { tab.Register("A1", build) },
		"empty label":          func() { tab.RegisterPattern("", parse) },
		"nil parser":           func() { tab.RegisterPattern("<fresh>", nil) },
		"duplicate label":      func() { tab.RegisterPattern("num:<n>", parse) },
		"duplicate label nil":  func() { tab.RegisterPattern("<ends-in-7>", nil) },
		"empty name and alias": func() { tab.Register("", build, "") },
	} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "registered") {
					t.Errorf("%s: recovered %v, want a registration panic", what, r)
				}
			}()
			register()
		}()
	}
	if got := tab.Names(); !slices.Equal(got, names) {
		t.Errorf("after the panics Names() = %v, want %v", got, names)
	}

	// Lookups run while registrations publish new names (run under -race).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got, err := tab.Lookup("a1"); err != nil || got != "A" {
					t.Errorf("concurrent Lookup(a1) = %q, %v", got, err)
					return
				}
				tab.Lookup(fmt.Sprintf("late-%d", i))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		tab.Register(fmt.Sprintf("late-%d", i), build)
	}
	wg.Wait()
	if got, err := tab.Lookup("LATE-49"); err != nil || got != "X" {
		t.Errorf("Lookup(LATE-49) = %q, %v", got, err)
	}
}
