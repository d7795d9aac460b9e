package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

func searchWorkloads() []*searchWorkload {
	return []*searchWorkload{paperGrid(), appendixELarge()}
}

func TestOpsDeterministic(t *testing.T) {
	for _, w := range searchWorkloads() {
		a, err := json.Marshal(w.ops(7))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(w.ops(7))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op lists", w.name)
		}
		c, _ := json.Marshal(w.ops(8))
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.name)
		}
	}
}

func TestColdKeysNeverRepeat(t *testing.T) {
	for _, w := range searchWorkloads() {
		seen := map[string]bool{}
		for _, r := range w.warmRequests() {
			k, err := canonicalKey(r)
			if err != nil {
				t.Fatal(err)
			}
			seen[k] = true
		}
		ops := w.ops(3)
		if len(ops) < 400 {
			t.Errorf("%s: only %d ops before a scenario runs out of draws", w.name, len(ops))
		}
		for i, op := range ops {
			if op.Hit {
				continue
			}
			k, err := canonicalKey(op.Req)
			if err != nil {
				t.Fatal(err)
			}
			if seen[k] {
				t.Fatalf("%s: op %d repeats cold or warm key %s", w.name, i, k)
			}
			seen[k] = true
		}
	}
}

func TestHitsTargetRecentColdKeys(t *testing.T) {
	for _, w := range searchWorkloads() {
		// Completing ops in list order, as one connection does.
		picker := &hitPicker{rng: rand.New(rand.NewSource(5))}
		var cold []string
		hits := 0
		ops := w.ops(5)
		for i, op := range ops {
			if !op.Hit {
				k, err := canonicalKey(op.Req)
				if err != nil {
					t.Fatal(err)
				}
				cold = append(cold, k)
				picker.done(i)
				continue
			}
			hits++
			for b := 0; b < hitBurst; b++ {
				j, ok := picker.pick()
				if !ok {
					t.Fatalf("%s: hit op %d has no completed cold op to repeat", w.name, i)
				}
				k, _ := canonicalKey(ops[j].Req)
				recent := false
				for _, c := range cold[max(0, len(cold)-hitWindow):] {
					recent = recent || c == k
				}
				if ops[j].Hit || !recent {
					t.Fatalf("%s: hit op %d targets op %d, not one of the last %d cold keys", w.name, i, j, hitWindow)
				}
			}
		}
		if len(ops)/hits != w.hitEvery {
			t.Errorf("%s: %d hits in %d ops, want one in %d", w.name, hits, len(ops), w.hitEvery)
		}
	}
}
