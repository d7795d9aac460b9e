package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestBurstChecksEveryAnswer(t *testing.T) {
	// A server that answers every request from its cache with one answer.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"title":"H","table":"T","cached":true,"partial":false}`)
	}))
	defer ts.Close()
	srv := &server{url: ts.URL, client: ts.Client()}
	ctx := context.Background()
	same := answered{body: []byte(`{}`), title: "H", table: "T"}
	if r := burstOnce(ctx, srv, []answered{same, same}); !r.ok {
		t.Error("a burst of matching cached answers failed")
	}
	for _, other := range []answered{{body: same.body, title: "H", table: "U"}, {body: same.body, title: "G", table: "T"}} {
		if r := burstOnce(ctx, srv, []answered{same, other}); r.ok {
			t.Errorf("a cached answer other than the cold op's (%+v) passed", other)
		}
	}
	if r := burstOnce(ctx, srv, nil); r.ok {
		t.Error("a hit with no cold op to repeat passed")
	}
	if r := searchOnce(ctx, srv, same.body, false); r.ok {
		t.Error("a cached answer to a cold op passed")
	}
}

func TestPremises(t *testing.T) {
	pg, ael := paperGrid(), appendixELarge()
	if err := pg.premise(map[string]float64{"search.sims_per_group": 1}); err != nil {
		t.Errorf("paper-grid at one simulation per group: %v", err)
	}
	if pg.premise(map[string]float64{"search.sims_per_group": 1.05}) == nil {
		t.Error("paper-grid accepted more than one simulation per group")
	}
	v := map[string]float64{"search.sims_per_group": 4.2, "search.v.simulated": 30, "search.bf.simulated": 2}
	if err := ael.premise(v); err != nil {
		t.Errorf("appendix-e-large dominated by the V-schedule: %v", err)
	}
	v["search.bf.simulated"] = 30
	if ael.premise(v) == nil {
		t.Error("appendix-e-large accepted a family simulating as often as the V-schedule")
	}
	v["search.bf.simulated"], v["search.sims_per_group"] = 2, 1.5
	if ael.premise(v) == nil {
		t.Error("appendix-e-large accepted 1.5 simulations per group")
	}
}
