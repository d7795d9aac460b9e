// Package fault is the deterministic chaos layer: a seeded,
// schedule-driven fault injector with named injection points wired through
// the runtime (device-step panics, stalled channel sends), the worker pool
// (item delays) and the job service (handler-level errors and panics).
//
// The design priorities are, in order:
//
//  1. Zero cost when off. Every injection point guards on a nil Injector
//     (a single pointer compare), so the default no-op configuration adds
//     nothing to the hot paths; BENCH_search.json's fault_overhead ratios
//     pin this at <= 1.02x.
//  2. Determinism. A fault decision is a function of the injection point's
//     coordinates (step, rank, op index, arrival number, ...), never of
//     goroutine scheduling: the Seeded injector hashes (seed, point,
//     coords) and the Script injector matches explicit coordinate rules,
//     so the same seed or script produces the same faults at the same
//     sites on every run. Combined with the recovery layers above
//     (supervised trainer replay, retrying clients), any seeded fault
//     schedule yields output byte-identical to the fault-free run — the
//     chaos property the test suites pin.
//  3. Convergence. Both injectors fire a given coordinate tuple a bounded
//     number of times (Script rules carry an arrival budget; Seeded fires
//     each faulting site once), so a deterministic retry of the same work
//     eventually succeeds instead of re-hitting the same fault forever.
package fault

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names an injection site class. Injection points pass their own
// coordinate convention to At (documented per constant); rules and rates
// are keyed by Point.
type Point uint8

const (
	// DeviceOp fires before a runtime device executes one schedule op.
	// Coordinates: step, pp, dp, op index. Panic and Delay apply.
	DeviceOp Point = iota
	// ChannelSend fires before a runtime device sends an activation or
	// gradient on the transfer lattice. Coordinates: step, stage, micro,
	// dp. Delay applies (a stalled interconnect).
	ChannelSend
	// PoolItem fires before a parallel worker evaluates one work item.
	// Coordinates: item index — in a search sweep, where each item is one
	// (family, batch) group, the group's index in the pool's work list
	// (the enumeration pass hands groups out in (family, batch) order, the
	// pricing pass largest first). Delay applies (a straggling worker).
	PoolItem
	// Handler fires at HTTP request admission, before the service method
	// runs. Coordinates: arrival number. Error and Panic apply.
	Handler
	// Job fires inside a service job after its semaphore slot is held.
	// Coordinates: arrival number. Error and Panic apply (the panic path
	// proves the slot is released and the server survives).
	Job
	// StoreWrite fires before the durable result store appends a record.
	// Coordinates: write sequence number. Error applies (the write is
	// reported failed, nothing is appended — a full disk); Delay stalls it.
	StoreWrite
	// StoreSync fires before the store fsyncs an appended record.
	// Coordinates: write sequence number. Error applies (the record is
	// written but its durability is unconfirmed — the crash window the
	// CRC framing exists for); Delay stalls it.
	StoreSync

	numPoints
)

var pointNames = [numPoints]string{
	DeviceOp:    "device",
	ChannelSend: "send",
	PoolItem:    "pool",
	Handler:     "handler",
	Job:         "job",
	StoreWrite:  "store",
	StoreSync:   "store-sync",
}

// String returns the spelling ParseScript accepts.
func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", int(p))
}

// Kind is what an injected fault does at its site.
type Kind uint8

const (
	// Panic panics at the site; the recovery path under test must contain
	// it (the runtime recovers device panics, the HTTP middleware recovers
	// handler panics).
	Panic Kind = iota
	// Delay sleeps at the site (cancellably where a context is in scope).
	Delay
	// Error makes the site return Err instead of proceeding.
	Error
)

// String names the kind as ParseScript spells it.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one injected fault decision.
type Fault struct {
	Kind Kind
	// Sleep applies to Kind Delay.
	Sleep time.Duration
	// Err applies to Kind Error; sites wrap it in their own transient
	// error type so retry layers recognize it.
	Err error
}

// Injector decides, at a named injection point with deterministic
// coordinates, whether a fault fires there. Implementations must be safe
// for concurrent use and must make decisions from (point, coords) state
// only — never from wall-clock time or goroutine identity — so a fault
// schedule is reproducible.
type Injector interface {
	At(p Point, coords ...int) (Fault, bool)
}

// Rule is one Script entry: it fires Fault at Point for the first Times
// arrivals whose coordinates start with Coords (missing trailing
// coordinates are wildcards; a nil Coords matches every arrival).
type Rule struct {
	Point  Point
	Coords []int
	// Times bounds how many matching arrivals fire; 0 means 1. The bound
	// is what lets a deterministic retry of the same coordinates succeed.
	Times int
	Fault Fault
}

// Script is the scripted injector: an explicit fault schedule for tests
// and the bfpp-serve -chaos flag. Matching is first-rule-wins in Rule
// order; each rule counts its own arrivals.
type Script struct {
	mu    sync.Mutex
	rules []Rule
	fired []int
}

// NewScript builds a scripted injector. With no rules it is a pure no-op
// (the shape the overhead benchmarks install).
func NewScript(rules ...Rule) *Script {
	return &Script{rules: rules, fired: make([]int, len(rules))}
}

// At implements Injector.
func (s *Script) At(p Point, coords ...int) (Fault, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.rules {
		r := &s.rules[i]
		if r.Point != p || !prefixMatch(r.Coords, coords) {
			continue
		}
		times := r.Times
		if times <= 0 {
			times = 1
		}
		if s.fired[i] >= times {
			continue
		}
		s.fired[i]++
		return r.Fault, true
	}
	return Fault{}, false
}

// Fired returns how many faults the script has injected in total.
func (s *Script) Fired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, f := range s.fired {
		n += f
	}
	return n
}

func prefixMatch(want, got []int) bool {
	if len(want) > len(got) {
		return false
	}
	for i, w := range want {
		if got[i] != w {
			return false
		}
	}
	return true
}

// Seeded is the seeded random injector: site (point, coords) faults iff
// splitmix64(seed, point, coords) falls under the point's rate. The
// decision is a pure hash — independent of arrival order and goroutine
// scheduling — and each faulting site fires exactly once (the first
// arrival), so retries of the same coordinates converge.
type Seeded struct {
	seed   int64
	rates  [numPoints]float64
	faults [numPoints]Fault

	mu   sync.Mutex
	seen map[string]bool
}

// NewSeeded builds a seeded injector with no active points; arm points
// with Rate.
func NewSeeded(seed int64) *Seeded {
	return &Seeded{seed: seed, seen: make(map[string]bool)}
}

// Rate arms a point: fraction rate of its coordinate space faults with f.
// It returns the receiver for chaining.
func (s *Seeded) Rate(p Point, rate float64, f Fault) *Seeded {
	s.rates[p] = rate
	s.faults[p] = f
	return s
}

// At implements Injector.
func (s *Seeded) At(p Point, coords ...int) (Fault, bool) {
	rate := s.rates[p]
	if rate <= 0 {
		return Fault{}, false
	}
	h := uint64(s.seed)*0x9e3779b97f4a7c15 + uint64(p+1)
	for _, c := range coords {
		h = splitmix64(h ^ uint64(c))
	}
	h = splitmix64(h)
	// Top 53 bits -> [0, 1).
	if float64(h>>11)/float64(1<<53) >= rate {
		return Fault{}, false
	}
	key := siteKey(p, coords)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[key] {
		return Fault{}, false
	}
	s.seen[key] = true
	return s.faults[p], true
}

func siteKey(p Point, coords []int) string {
	var b strings.Builder
	b.WriteString(p.String())
	for _, c := range coords {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// InjectedError marks an error produced by a Kind Error fault so the
// service layer can classify it as transient (retryable) rather than a
// real execution failure.
type InjectedError struct{ Msg string }

func (e InjectedError) Error() string { return "injected fault: " + e.Msg }

// ParseScript parses the bfpp-serve -chaos spelling: comma-separated
// "point:kind:times[:delay-ms]" rules, e.g. "job:error:1" (the first job
// fails with a transient error) or "handler:panic:1,pool:delay:3:5". The
// rules carry no coordinates (they match any arrival), which is the useful
// shape at the service boundary.
func ParseScript(spec string) (*Script, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("fault: bad rule %q (want point:kind:times[:delay-ms])", part)
		}
		var rule Rule
		found := false
		for p := Point(0); p < numPoints; p++ {
			if pointNames[p] == fields[0] {
				rule.Point, found = p, true
			}
		}
		if !found {
			return nil, fmt.Errorf("fault: unknown point %q (device, send, pool, handler, job, store, store-sync)", fields[0])
		}
		times, err := strconv.Atoi(fields[2])
		if err != nil || times < 1 {
			return nil, fmt.Errorf("fault: bad times %q in rule %q", fields[2], part)
		}
		rule.Times = times
		switch fields[1] {
		case "panic":
			rule.Fault = Fault{Kind: Panic}
		case "error":
			rule.Fault = Fault{Kind: Error, Err: InjectedError{Msg: part}}
		case "delay":
			if len(fields) != 4 {
				return nil, fmt.Errorf("fault: delay rule %q needs a delay-ms field", part)
			}
			ms, err := strconv.Atoi(fields[3])
			if err != nil || ms < 0 {
				return nil, fmt.Errorf("fault: bad delay %q in rule %q", fields[3], part)
			}
			rule.Fault = Fault{Kind: Delay, Sleep: time.Duration(ms) * time.Millisecond}
		default:
			return nil, fmt.Errorf("fault: unknown kind %q (panic, error, delay)", fields[1])
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: empty chaos spec %q", spec)
	}
	return NewScript(rules...), nil
}

// ctxKey carries an Injector through a context; the worker pool reads it.
type ctxKey struct{}

// With returns a context carrying the injector; the parallel worker pool
// consults it at the PoolItem point. A nil injector returns ctx unchanged.
func With(ctx context.Context, inj Injector) context.Context {
	if inj == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, inj)
}

// From extracts the context's injector, or nil. The nil return is the
// hot-path guard: callers skip the At call entirely.
func From(ctx context.Context) Injector {
	inj, _ := ctx.Value(ctxKey{}).(Injector)
	return inj
}

// SleepCtx sleeps for d or until the context is done, returning ctx.Err()
// in the latter case. Injection sites use it so an injected stall never
// outlives its request.
func SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
