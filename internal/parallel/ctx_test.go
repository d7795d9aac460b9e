package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapCtxBackgroundMatchesMap pins that a background context changes
// nothing: the pool returns exactly what a plain serial map computes.
func TestMapCtxBackgroundMatchesMap(t *testing.T) {
	items := []int{1, 2, 3, 4, 5, 6, 7, 8}
	fn := func(i int, v int) (int, error) { return v * v, nil }
	got, err := MapCtx(context.Background(), 4, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range items {
		if want, _ := fn(i, v); got[i] != want {
			t.Fatalf("index %d: %d != %d", i, got[i], want)
		}
	}
}

// TestMapCtxCancelStopsNewItems asserts that after cancellation no new
// item starts, in-flight items complete, and the call returns ctx.Err().
// It counts only the items that start after cancel() has returned: a
// worker checks ctx before it takes an item, so each may start at most
// the one item it took before the cancel landed.
func TestMapCtxCancelStopsNewItems(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started, after atomic.Int64
		var cancelled atomic.Bool
		items := make([]int, 1000)
		_, err := MapCtx(ctx, workers, items, func(i int, _ int) (struct{}, error) {
			if cancelled.Load() {
				after.Add(1)
			}
			if started.Add(1) == 3 {
				cancel()
				cancelled.Store(true)
			}
			return struct{}{}, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := after.Load(); n > int64(workers) {
			t.Errorf("workers=%d: %d items started after cancel() returned (want <= %d)", workers, n, workers)
		}
		cancel()
	}
}

// TestMapCtxCancelWinsOverItemErrors pins the precedence rule: once the
// context is cancelled the call reports ctx.Err(), not a timing-dependent
// item error.
func TestMapCtxCancelWinsOverItemErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := []int{0, 1, 2, 3}
	_, err := MapCtx(ctx, 2, items, func(i int, _ int) (struct{}, error) {
		cancel()
		return struct{}{}, errors.New("item error")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMapCtxDeadline asserts an expired deadline aborts the map with
// context.DeadlineExceeded.
func TestMapCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	items := make([]int, 100000)
	_, err := MapCtx(ctx, 2, items, func(i int, _ int) (struct{}, error) {
		time.Sleep(100 * time.Microsecond)
		return struct{}{}, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestMapCtxDrainsGoroutines asserts a cancelled pool leaks nothing: the
// goroutine count returns to its pre-call level (with retries, since the
// runtime reaps asynchronously).
func TestMapCtxDrainsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 10000)
	var n atomic.Int64
	_, err := MapCtx(ctx, 8, items, func(i int, _ int) (struct{}, error) {
		if n.Add(1) == 2 {
			cancel()
		}
		return struct{}{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cancel()
	for attempt := 0; ; attempt++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if attempt > 50 {
			t.Fatalf("goroutines did not drain: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMapCtxAlreadyCancelled asserts a context cancelled before the call
// starts no item at any worker count and reports the cancellation.
func TestMapCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		var started atomic.Int64
		_, err := MapCtx(ctx, workers, []int{1, 2, 3}, func(int, int) (struct{}, error) {
			started.Add(1)
			return struct{}{}, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := started.Load(); n != 0 {
			t.Errorf("workers=%d: %d items started under a cancelled context", workers, n)
		}
	}
}
