package tradeoff

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"bfpp/internal/batchsize"
	"bfpp/internal/core"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/model"
)

func measured(t *testing.T, p core.Plan) engine.Result {
	t.Helper()
	r, err := engine.Simulate(hw.PaperCluster(), model.Model52B(), p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func bfPlan() core.Plan {
	return core.Plan{Method: core.BreadthFirst, DP: 1, PP: 8, TP: 8,
		MicroBatch: 1, NumMicro: 9, Loops: 8, OverlapDP: true, OverlapPP: true}
}

// Eq. (8) identities: cost = time * GPUs; doubling the cluster at fixed
// beta doubles the batch, raises the overhead, and so less than halves the
// time while raising the cost.
func TestExtrapolateIdentities(t *testing.T) {
	m := model.Model52B()
	r := measured(t, bfPlan())
	p1 := Extrapolate(m, r, batchsize.PaperBcrit52B, 1024)
	p2 := Extrapolate(m, r, batchsize.PaperBcrit52B, 2048)
	if math.Abs(p1.CostGPUDays-p1.TimeDays*1024)/p1.CostGPUDays > 1e-12 {
		t.Error("cost != time * GPUs")
	}
	if p2.TimeDays >= p1.TimeDays {
		t.Error("more GPUs should reduce time")
	}
	if p2.TimeDays <= p1.TimeDays/2 {
		t.Error("the batch overhead should prevent perfect scaling")
	}
	if p2.CostGPUDays <= p1.CostGPUDays {
		t.Error("scaling up at fixed beta should cost more in total")
	}
	if p2.Batch != 2*p1.Batch {
		t.Error("batch should scale with the cluster")
	}
	if p2.Overhead <= p1.Overhead {
		t.Error("overhead should grow with the batch")
	}
}

// Figure 1 / Section 5.4 ballpark: the 52B model on 4096 V100s at small
// beta trains in single-digit-to-low-tens of days at a cost of tens of
// thousands of GPU-days (Figure 8a: ~30-70 thousand).
func TestPaperScaleBallpark(t *testing.T) {
	m := model.Model52B()
	r := measured(t, bfPlan())
	p := Extrapolate(m, r, batchsize.PaperBcrit52B, 4096)
	if p.TimeDays < 3 || p.TimeDays > 25 {
		t.Errorf("52B on 4096 GPUs: %.1f days, expected single digits to low tens", p.TimeDays)
	}
	if p.CostGPUDays < 20e3 || p.CostGPUDays > 90e3 {
		t.Errorf("52B cost = %.0f GPU-days, expected 20k-90k", p.CostGPUDays)
	}
}

// The curve must pick the best measured config per cluster size: small-beta
// configs win on huge clusters (batch overhead), large-beta configs win on
// small clusters (utilization).
func TestCurveSelectsByClusterSize(t *testing.T) {
	m := model.Model52B()
	smallBeta := measured(t, bfPlan()) // beta = 9/64
	largeBeta := measured(t, core.Plan{Method: core.BreadthFirst, DP: 4, PP: 8, TP: 2,
		MicroBatch: 2, NumMicro: 16, Loops: 8, Sharding: core.DPFS,
		OverlapDP: true, OverlapPP: true}) // beta = 2
	pts, err := Curve(context.Background(), m, []engine.Result{smallBeta, largeBeta},
		batchsize.PaperBcrit52B, []int{256, 65536})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].GPUs != 256 || pts[1].GPUs != 65536 {
		t.Fatalf("unexpected order: %+v", pts)
	}
	if pts[0].Beta != largeBeta.Plan.BatchPerGPU() {
		t.Errorf("small cluster should pick the high-beta config, got beta=%.3f", pts[0].Beta)
	}
	if pts[1].Beta != smallBeta.Plan.BatchPerGPU() {
		t.Errorf("huge cluster should pick the low-beta config, got beta=%.3f", pts[1].Beta)
	}
}

// Figure 8 monotonicity: along a method's curve, time falls and cost rises
// with cluster size.
func TestCurveMonotonicity(t *testing.T) {
	m := model.Model52B()
	r := measured(t, bfPlan())
	pts, err := Curve(context.Background(), m, []engine.Result{r}, batchsize.PaperBcrit52B, PaperClusterSizes())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TimeDays >= pts[i-1].TimeDays {
			t.Errorf("time should fall with cluster size: %+v", pts)
		}
		if pts[i].CostGPUDays <= pts[i-1].CostGPUDays {
			t.Errorf("cost should rise with cluster size: %+v", pts)
		}
	}
}

func TestCurveErrors(t *testing.T) {
	m := model.Model52B()
	if _, err := Curve(context.Background(), m, nil, 100, []int{64}); err == nil {
		t.Error("no results should fail")
	}
	r := measured(t, bfPlan())
	if _, err := Curve(context.Background(), m, []engine.Result{r}, 0, []int{64}); err == nil {
		t.Error("zero bcrit should fail")
	}
	if _, err := Curve(context.Background(), m, []engine.Result{r}, 100, []int{0}); err == nil {
		t.Error("zero cluster size should fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Curve(ctx, m, []engine.Result{r}, 100, []int{64}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: error %v, want context.Canceled", err)
	}
}

func TestFormat(t *testing.T) {
	m := model.Model52B()
	r := measured(t, bfPlan())
	pts, err := Curve(context.Background(), m, []engine.Result{r}, batchsize.PaperBcrit52B, []int{256, 1024})
	if err != nil {
		t.Fatal(err)
	}
	s := Format("Figure 8a", pts)
	if !strings.Contains(s, "Figure 8a") || !strings.Contains(s, "256") {
		t.Errorf("format missing content:\n%s", s)
	}
}
