// Package dispatch is the shard coordinator behind distributed sweeps: it
// splits a sweep's (family, batch) groups across N replicas — in-process
// executors or remote bfpp-serve instances behind one Replica interface —
// health-checks them, retries transient dispatch failures with the
// service's bounded backoff, reassigns a faulted replica's groups to the
// survivors, and merges the shard winners.
//
// The merge is trivially deterministic because the work split is along the
// search's own independence boundary: each (family, batch) group's winner
// is a deterministic function of the request alone (no price crosses a
// group boundary, so co-resident groups change only pricing effort), so
// whichever replica prices a group — and however many times a fault makes
// another replica re-price it — the merged table is byte-identical to the
// single-process search.SweepAll. The chaos tests pin exactly that, under
// -race, with scripted replica faults.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bfpp/internal/fault"
	"bfpp/internal/search"
	"bfpp/internal/service"
)

// Replica prices single (family, batch) groups of a sweep. Implementations
// must be safe for concurrent use: the coordinator runs one dispatching
// worker per replica, and Health probes may overlap dispatches.
type Replica interface {
	// Name identifies the replica in health reports and errors.
	Name() string
	// Check probes liveness (a no-op for in-process executors).
	Check(ctx context.Context) error
	// Run prices one group of the request. It returns the group's winner
	// and true; or false when the group has no feasible configuration (a
	// deterministic property of the request, not a fault); or an error
	// when the replica failed to price it — which the coordinator retries
	// and then fails over. Run must not mutate req.
	Run(ctx context.Context, req service.SearchRequest, g search.GroupKey) (search.Best, bool, error)
}

// Options tunes a Coordinator.
type Options struct {
	// Retry shapes the per-(replica, group) retry of transient dispatch
	// failures (service.Do's classification: load sheds and injected
	// faults retry, everything else fails over immediately). A zero
	// MaxAttempts means service.DefaultRetry(0).
	Retry service.RetryPolicy
	// GroupTimeout bounds one dispatch attempt; a straggling replica
	// (network partition, injected stall) times out and the group is
	// reassigned. 0 means no per-attempt bound beyond the sweep context.
	GroupTimeout time.Duration
	// Injector is the chaos hook, consulted at the fault.Replica point
	// with coordinates (replica index, group index) before each dispatch
	// attempt.
	Injector fault.Injector
}

// Coordinator implements service.Sharder over a fixed replica set.
type Coordinator struct {
	replicas []Replica
	opts     Options

	dispatched atomic.Int64 // groups priced successfully, total
	failovers  atomic.Int64 // replica faults that forced a reassignment

	mu        sync.Mutex
	lastFault map[int]string // last dispatch fault per replica index
}

var _ service.Sharder = (*Coordinator)(nil)

// New builds a coordinator over the replica set.
func New(opts Options, replicas ...Replica) *Coordinator {
	if opts.Retry.MaxAttempts <= 0 {
		opts.Retry = service.DefaultRetry(0)
	}
	return &Coordinator{replicas: replicas, opts: opts, lastFault: map[int]string{}}
}

// Stats reports the coordinator's lifetime counters: groups priced and
// replica failovers.
func (co *Coordinator) Stats() (dispatched, failovers int64) {
	return co.dispatched.Load(), co.failovers.Load()
}

// Health implements service.Sharder: a live probe of every replica, with
// the last dispatch fault attached to replicas that are probe-healthy but
// recently failed over (degraded-as-data, like the rest of /healthz).
func (co *Coordinator) Health(ctx context.Context) []service.ReplicaHealth {
	out := make([]service.ReplicaHealth, len(co.replicas))
	for i, r := range co.replicas {
		h := service.ReplicaHealth{Name: r.Name(), OK: true}
		if err := r.Check(ctx); err != nil {
			h.OK, h.Err = false, err.Error()
		} else {
			co.mu.Lock()
			h.Err = co.lastFault[i]
			co.mu.Unlock()
		}
		out[i] = h
	}
	return out
}

// groupOutcome is one group's dispatch result.
type groupOutcome struct {
	best     search.Best
	feasible bool
}

// Dispatch implements service.Sharder. Groups feed one shared queue; each
// replica runs a dispatching worker that drains it. A worker whose
// dispatch fails terminally (retries exhausted, panic, timeout) marks its
// replica down for this sweep, requeues the group for the survivors and
// exits — so any prefix of replica deaths only slows the sweep down, and
// the sweep fails only when every replica is dead with groups unfinished.
func (co *Coordinator) Dispatch(ctx context.Context, req service.SearchRequest, groups []search.GroupKey) (map[search.GroupKey]search.Best, error) {
	if len(co.replicas) == 0 {
		return nil, errors.New("dispatch: no replicas configured")
	}
	out := make(map[search.GroupKey]search.Best, len(groups))
	if len(groups) == 0 {
		return out, nil
	}
	// Each worker requeues at most one group before exiting, so the queue
	// never blocks a sender and never needs closing.
	queue := make(chan int, len(groups)+len(co.replicas))
	for gi := range groups {
		queue <- gi
	}
	var (
		mu       sync.Mutex
		done     int
		outs     = make([]groupOutcome, len(groups))
		finished = make(chan struct{})
		deadEnd  = make(chan struct{})
		stop     = make(chan struct{})
		live     atomic.Int64
	)
	live.Store(int64(len(co.replicas)))
	defer close(stop) // release idle workers on every exit path
	for ri := range co.replicas {
		go func(ri int) {
			defer func() {
				if live.Add(-1) == 0 {
					close(deadEnd)
				}
			}()
			for {
				var gi int
				select {
				case gi = <-queue:
				case <-stop:
					return
				}
				res, err := co.runGroup(ctx, ri, req, gi, groups[gi])
				if err != nil {
					if ctx.Err() != nil {
						return // the sweep is dying; the caller reports ctx.Err()
					}
					co.markDown(ri, gi, groups[gi], err)
					queue <- gi // fail the group over to a surviving replica
					return
				}
				co.dispatched.Add(1)
				mu.Lock()
				outs[gi] = res
				done++
				if done == len(groups) {
					close(finished)
				}
				mu.Unlock()
			}
		}(ri)
	}
	select {
	case <-finished:
		for gi, g := range groups {
			if outs[gi].feasible {
				out[g] = outs[gi].best
			}
		}
		return out, nil
	case <-deadEnd:
		mu.Lock()
		missing := len(groups) - done
		mu.Unlock()
		return nil, fmt.Errorf("dispatch: all %d replicas failed with %d of %d groups unpriced",
			len(co.replicas), missing, len(groups))
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// runGroup dispatches one group to one replica with bounded retries. The
// chaos injector fires per attempt at (replica, group); a recovered panic
// is a terminal replica fault (not retried — the replica's state is
// suspect), and so is a GroupTimeout expiry.
func (co *Coordinator) runGroup(ctx context.Context, ri int, req service.SearchRequest, gi int, g search.GroupKey) (groupOutcome, error) {
	r := co.replicas[ri]
	attempt := func() (res groupOutcome, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("dispatch: replica %s panicked pricing %s/%d: %v",
					r.Name(), g.Family, g.Batch, rec)
			}
		}()
		actx, cancel := ctx, context.CancelFunc(func() {})
		if co.opts.GroupTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, co.opts.GroupTimeout)
		}
		defer cancel()
		if inj := co.opts.Injector; inj != nil {
			if f, ok := inj.At(fault.Replica, ri, gi); ok {
				switch f.Kind {
				case fault.Panic:
					panic(fmt.Sprintf("injected replica fault (replica %d, group %d)", ri, gi))
				case fault.Delay:
					if serr := fault.SleepCtx(actx, f.Sleep); serr != nil {
						return res, fmt.Errorf("dispatch: replica %s stalled pricing %s/%d: %w",
							r.Name(), g.Family, g.Batch, serr)
					}
				case fault.Error:
					return res, fmt.Errorf("dispatch: replica %s: %w", r.Name(), f.Err)
				}
			}
		}
		best, feasible, rerr := r.Run(actx, req, g)
		if rerr != nil {
			return res, fmt.Errorf("dispatch: replica %s pricing %s/%d: %w",
				r.Name(), g.Family, g.Batch, rerr)
		}
		return groupOutcome{best: best, feasible: feasible}, nil
	}
	return service.Do(ctx, co.retryFor(ri, gi), attempt)
}

// retryFor derives the per-(replica, group) retry policy: the shared shape
// with a decorrelated jitter seed, so two replicas backing off at once do
// not thunder in phase.
func (co *Coordinator) retryFor(ri, gi int) service.RetryPolicy {
	p := co.opts.Retry
	p.Seed = p.Seed*1000003 + int64(ri)*31 + int64(gi)
	return p
}

// markDown records a replica's terminal dispatch fault.
func (co *Coordinator) markDown(ri, gi int, g search.GroupKey, err error) {
	co.failovers.Add(1)
	co.mu.Lock()
	co.lastFault[ri] = fmt.Sprintf("failed over pricing %s/%d: %v", g.Family, g.Batch, err)
	co.mu.Unlock()
}
