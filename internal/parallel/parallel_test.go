package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bfpp/internal/fault"
)

// TestMapCtxFaultStallsPreserveDeterminism: injected PoolItem stalls change
// timing only — results and error reporting stay byte-identical to the
// uninjected pool at every worker count.
func TestMapCtxFaultStallsPreserveDeterminism(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	fn := func(i int, item int) (int, error) { return item * item, nil }
	want, err := MapCtx(context.Background(), 1, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		inj := fault.NewSeeded(9).Rate(fault.PoolItem, 0.3, fault.Fault{Kind: fault.Delay, Sleep: 100 * time.Microsecond})
		ctx := fault.With(context.Background(), inj)
		got, err := MapCtx(ctx, workers, items, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d item %d: %d != %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestMapCtxCancelDuringFaultStall: a cancelled context interrupts an
// injected stall promptly instead of sleeping it out.
func TestMapCtxCancelDuringFaultStall(t *testing.T) {
	inj := fault.NewScript(fault.Rule{
		Point: fault.PoolItem, Times: 8,
		Fault: fault.Fault{Kind: fault.Delay, Sleep: time.Hour},
	})
	ctx, cancel := context.WithCancel(fault.With(context.Background(), inj))
	time.AfterFunc(10*time.Millisecond, cancel)
	items := []int{0, 1, 2, 3}
	start := time.Now()
	_, err := MapCtx(ctx, 2, items, func(i int, item int) (int, error) { return item, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; stall was not interruptible", elapsed)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 64} {
		out, err := MapCtx(context.Background(), workers, items, func(_ int, v int) (int, error) {
			return v * 3, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*3 {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*3)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := MapCtx(context.Background(), 4, nil, func(_ int, v int) (int, error) { return v, nil })
	if err != nil || out != nil {
		t.Fatalf("empty MapCtx = (%v, %v), want (nil, nil)", out, err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	fail := map[int]bool{7: true, 3: true, 90: true}
	for _, workers := range []int{1, 8} {
		_, err := MapCtx(context.Background(), workers, items, func(i int, _ int) (int, error) {
			if fail[i] {
				return 0, fmt.Errorf("item %d failed", i)
			}
			return 0, nil
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("workers=%d: err = %v, want lowest-index error (item 3)", workers, err)
		}
	}
}

func TestMapEvaluatesConcurrently(t *testing.T) {
	// With more workers than a serial dependency would allow, all items
	// must still be evaluated exactly once.
	var count atomic.Int64
	items := make([]struct{}, 500)
	_, err := MapCtx(context.Background(), 16, items, func(_ int, _ struct{}) (struct{}, error) {
		count.Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := count.Load(); got != 500 {
		t.Fatalf("evaluated %d items, want 500", got)
	}
}

func TestResolveAndDefault(t *testing.T) {
	if got := Resolve(5); got != 5 {
		t.Errorf("Resolve(5) = %d", got)
	}
	for _, n := range []int{0, -1} {
		if got := Resolve(n); got != runtime.GOMAXPROCS(0) {
			t.Errorf("Resolve(%d) = %d, want GOMAXPROCS %d", n, got, runtime.GOMAXPROCS(0))
		}
	}
}
