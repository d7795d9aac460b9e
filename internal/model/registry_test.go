package model

import (
	"slices"
	"strings"
	"testing"
)

// TestRegistryCoversAllModels asserts every built-in constructor is
// reachable through the registry under its canonical name and that the
// registered entries build valid models equal to the constructors'.
func TestRegistryCoversAllModels(t *testing.T) {
	builtins := map[string]func() Transformer{
		"52B": Model52B, "6.6B": Model6p6B, "GPT-3": GPT3, "1T": Model1T, "tiny": Tiny,
	}
	names := Registry.Names()
	for name, build := range builtins {
		got, err := Registry.Lookup(name)
		if err != nil {
			t.Errorf("built-in model %q: %v", name, err)
			continue
		}
		if want := build(); got != want {
			t.Errorf("%q: registry builds %v, constructor builds %v", name, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%q: registered model invalid: %v", name, err)
		}
		if !slices.Contains(names, name) {
			t.Errorf("Names() = %v is missing %q", names, name)
		}
	}
}

// TestLookupAliasRoundTrip asserts the built-in aliases and case variants
// build the same model as the constructor.
func TestLookupAliasRoundTrip(t *testing.T) {
	cases := map[string]func() Transformer{
		"6p6b": Model6p6B, "6P6B": Model6p6B, "6.6b": Model6p6B, "gpt3": GPT3,
		"GPT3": GPT3, "gpt-3": GPT3, "52b": Model52B, "1t": Model1T, "TINY": Tiny,
	}
	for alias, build := range cases {
		got, err := Registry.Lookup(alias)
		if err != nil {
			t.Errorf("alias %q: %v", alias, err)
			continue
		}
		if want := build(); got != want {
			t.Errorf("alias %q built %v, constructor builds %v", alias, got, want)
		}
	}
	if _, err := Registry.Lookup("banana"); err == nil {
		t.Error("unregistered name resolved")
	}
}

// TestDuplicateRegisterPanics asserts the model table refuses a
// registration that collides with a built-in spelling — on the canonical
// name and on an alias alike — or that is empty or nil.
func TestDuplicateRegisterPanics(t *testing.T) {
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
	mustPanic("duplicate name", func() { Registry.Register("52B", Tiny) })
	mustPanic("duplicate via case", func() { Registry.Register("52b", Tiny) })
	mustPanic("duplicate alias", func() { Registry.Register("fresh-model-x", Tiny, "6p6b") })
	mustPanic("empty name", func() { Registry.Register("", Tiny) })
	mustPanic("nil constructor", func() { Registry.Register("fresh-model-y", nil) })
	if _, err := Registry.Lookup("fresh-model-x"); err == nil {
		t.Error("a panicking registration published its name")
	}
}

// TestRegisterExtension registers a throwaway model and asserts it
// resolves by name and alias and appears in Names() — the extension
// recipe in README.md.
func TestRegisterExtension(t *testing.T) {
	build := func() Transformer {
		m := Tiny()
		m.Name = "test-ext"
		return m
	}
	if _, err := Registry.Lookup("test-ext"); err != nil { // idempotent under -count>1
		Registry.Register("test-ext", build, "text")
	}
	got, err := Registry.Lookup("TEXT")
	if err != nil || got.Name != "test-ext" {
		t.Fatalf("extension alias lookup: %v, %v", got, err)
	}
	names := Registry.Names()
	if names[len(names)-1] != "test-ext" {
		t.Errorf("Names() tail = %q, want the freshly registered model", names[len(names)-1])
	}
}
