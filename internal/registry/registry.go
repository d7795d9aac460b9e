// Package registry is the one name table behind the scenario axes: the
// models (model.Registry), the clusters (hw.Registry) and the cost models
// (cost.Registry). Any package publishes a named constructor or a
// parameterized pattern at init time, and every consumer (the commands'
// -model/-cluster/-costmodel flags, the service requests' fields) resolves
// it by name, so a new scenario needs no switch edits.
//
// The schedule methods keep their own tables (core.RegisterMethod,
// schedule.Register): they are keyed by core.Method, and core's table is
// read on the replay's per-op hot path.
package registry

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Table resolves case-insensitive spellings to values of T. Fixed names
// and their aliases are tried first; patterns parse whatever the fixed
// names did not match, in registration order. Registrations run at init
// time and in tests, lookups once per request, so one RWMutex guards both.
type Table[T any] struct {
	kind     string // the axis, as errors and panics name it
	mu       sync.RWMutex
	fixed    []fixed[T]
	patterns []pattern[T]
}

// fixed is one named registration: the canonical name, extra aliases and
// the constructor.
type fixed[T any] struct {
	name    string
	aliases []string
	build   func() T
}

// pattern is one parameterized registration: label is the placeholder
// shown in listings and errors ("<gpu-count>"), parse reports whether it
// accepts the spelling and fails when it matched a broken payload.
type pattern[T any] struct {
	label string
	parse func(string) (T, bool, error)
}

// New returns an empty table; kind names the axis in errors and panics
// ("model", "cluster", "cost model").
func New[T any](kind string) *Table[T] { return &Table[T]{kind: kind} }

// Register publishes a named constructor. The name and the aliases match
// case-insensitively. It panics on an empty spelling, a nil constructor or
// a spelling that collides with a registered one: a registration bug
// should fail loudly at startup, not shadow an entry.
func (t *Table[T]) Register(name string, build func() T, aliases ...string) {
	if build == nil {
		panic(fmt.Sprintf("registry: %s %q registered with a nil constructor", t.kind, name))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range append([]string{name}, aliases...) {
		if s == "" {
			panic(fmt.Sprintf("registry: %s %q registered with an empty spelling", t.kind, name))
		}
		for _, e := range t.fixed {
			if e.matches(s) {
				panic(fmt.Sprintf("registry: %s %q registered twice", t.kind, s))
			}
		}
	}
	t.fixed = append(t.fixed, fixed[T]{name: name, aliases: aliases, build: build})
}

// RegisterPattern publishes a parameterized spelling, such as a bare GPU
// count. parse returns ok=false to pass the spelling on to the next
// pattern, and an error when the spelling matched but its payload is
// invalid; Lookup reports that error instead of "unknown". It panics on an
// empty label, a nil parser or a duplicate label.
func (t *Table[T]) RegisterPattern(label string, parse func(string) (T, bool, error)) {
	if label == "" || parse == nil {
		panic(fmt.Sprintf("registry: %s pattern %q registered with an empty label or a nil parser", t.kind, label))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.patterns {
		if p.label == label {
			panic(fmt.Sprintf("registry: %s pattern %q registered twice", t.kind, label))
		}
	}
	t.patterns = append(t.patterns, pattern[T]{label: label, parse: parse})
}

// Lookup resolves a spelling and builds its value: fixed names and aliases
// first, then the patterns in registration order. An unknown spelling
// fails listing every registered one.
func (t *Table[T]) Lookup(name string) (T, error) {
	// Registrations only append, so the snapshot's elements never change;
	// constructors and parsers run without the lock held.
	t.mu.RLock()
	fixed, patterns := t.fixed, t.patterns
	t.mu.RUnlock()
	for _, e := range fixed {
		if e.matches(name) {
			return e.build(), nil
		}
	}
	var zero T
	for _, p := range patterns {
		v, ok, err := p.parse(name)
		if err != nil {
			return zero, fmt.Errorf("%s %q: %w", t.kind, name, err)
		}
		if ok {
			return v, nil
		}
	}
	return zero, fmt.Errorf("unknown %s %q (registered: %s)", t.kind, name, strings.Join(t.Names(), ", "))
}

// Names returns every registered spelling a listing should show: the
// canonical fixed names, then the pattern labels, in registration order.
func (t *Table[T]) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := t.fixedNames()
	for _, p := range t.patterns {
		out = append(out, p.label)
	}
	return out
}

// FixedNames returns the canonical fixed names in registration order: the
// spellings a caller can build without a payload.
func (t *Table[T]) FixedNames() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.fixedNames()
}

func (t *Table[T]) fixedNames() []string {
	out := make([]string, 0, len(t.fixed)+len(t.patterns))
	for _, e := range t.fixed {
		out = append(out, e.name)
	}
	return out
}

// matches reports whether s spells the entry's name or one of its aliases.
func (e fixed[T]) matches(s string) bool {
	return strings.EqualFold(e.name, s) || slices.ContainsFunc(e.aliases, func(a string) bool {
		return strings.EqualFold(a, s)
	})
}
