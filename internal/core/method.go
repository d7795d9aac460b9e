package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Method selects the pipeline schedule (Sections 3.2 and 4.1). The set of
// methods is open: the seven schedules of the paper are declared here, and
// further schedules register themselves through RegisterMethod (the
// internal/schedule package does so for its extension generators). A
// Method value is only meaningful once a MethodInfo has been registered
// for it.
type Method int

const (
	// GPipe is the non-looped forward-first schedule of Huang et al.
	GPipe Method = iota
	// OneFOneB is the non-looped 1F1B schedule of Harlap et al.
	OneFOneB
	// DepthFirst is the looped depth-first schedule of Narayanan et al.
	// (Megatron-LM interleaved), running micro-batches in sequences of
	// N_PP with backward priority.
	DepthFirst
	// BreadthFirst is the paper's contribution: a looped schedule running
	// all micro-batches through each local stage before moving on,
	// forward-first, maximizing network overlap.
	BreadthFirst
	// NoPipelineDF is data parallelism without pipelining, accumulating
	// gradients depth-first (each micro-batch runs its full forward and
	// backward before the next starts).
	NoPipelineDF
	// NoPipelineBF is data parallelism without pipelining with the
	// breadth-first gradient accumulation of Appendix C (stages processed
	// breadth-first across micro-batches on a single device).
	NoPipelineBF
	// Hybrid is the depth/breadth hybrid the paper conjectures in Section
	// 4.2: a looping schedule processing micro-batches in sequences of
	// Plan.Sequence >= N_PP (Sequence = N_PP reduces to DepthFirst;
	// Sequence = N_mb approaches BreadthFirst). The extra slack lets the
	// pipeline-parallel transfers overlap, addressing the depth-first
	// schedule's input starvation.
	Hybrid
	// WeightStash1F1B is the PipeDream-style 1F1B with weight stashing
	// (Harlap et al., 2018), registered by internal/schedule: the batch's
	// data dependencies match 1F1B, but every in-flight micro-batch pins a
	// stashed half-precision weight version and the implementation overlaps
	// communication with compute (no flush-coupled blocking).
	WeightStash1F1B
	// VSchedule is the controllable-memory V-schedule (Qi et al., 2024),
	// registered by internal/schedule: stages are placed in a zigzag "V"
	// pattern so each device hosts complementary early/late stages, and a
	// tunable per-device cap on in-flight micro-batches (Plan.Sequence)
	// trades pipeline bubble for activation memory.
	VSchedule
)

// AccumWindow classifies how much of the batch a schedule holds in flight
// between optimizer-relevant boundaries (Section 4.2 / Appendix A.3): it
// determines both the fraction of compute available to overlap the gradient
// reduction with and the fully-sharded arithmetic intensity.
type AccumWindow int

const (
	// WindowSingleMicro accumulates per micro-batch: the non-looped
	// schedules (GPipe, 1F1B) and plain no-pipeline accumulation.
	WindowSingleMicro AccumWindow = iota
	// WindowSequence accumulates over a sequence of N_PP micro-batches:
	// the depth-first family (depth-first, hybrid).
	WindowSequence
	// WindowFullBatch holds the entire batch in flight: the breadth-first
	// family.
	WindowFullBatch
)

// Placement selects the stage-to-device mapping of a pipelined method.
type Placement int

const (
	// PlacementWrap is the looping placement of Figure 3: stage s runs on
	// device s mod N_PP, wrapping the stages around the ring.
	PlacementWrap Placement = iota
	// PlacementVee is the zigzag placement of the V-schedule: odd loops
	// reverse direction (stage l*PP+r runs on device PP-1-r), so each
	// device hosts complementary early and late stages and the turnaround
	// stages share a device (no transfer at the apex).
	PlacementVee
)

// MethodInfo is the static metadata of one schedule method: its display
// name, structural traits, stage placement, and the plan constraints that
// the generic Plan.Validate cannot express.
type MethodInfo struct {
	// Name is the display name ("Breadth-first"); it is also the JSON
	// encoding of the method.
	Name string
	// Aliases are extra lower-case spellings accepted when parsing.
	Aliases []string
	// Looped reports whether the schedule uses a looping placement
	// (N_loop > 1 is meaningful).
	Looped bool
	// Pipelined reports whether the schedule uses pipeline parallelism.
	Pipelined bool
	// ForwardFirst reports whether the schedule completes the forward pass
	// of queued micro-batches before starting backward work (GPipe-style)
	// rather than alternating (1F1B-style).
	ForwardFirst bool
	// Placement is the stage-to-device mapping.
	Placement Placement
	// Window is the schedule's gradient-accumulation window (single
	// micro-batch unless declared otherwise).
	Window AccumWindow
	// CheckPlan holds the method's structural plan constraints (nil when
	// the generic checks suffice), e.g. the depth-first N_mb divisibility.
	CheckPlan func(Plan) error
	// CheckSharding holds the method's sharding-compatibility constraints
	// (nil when every mode is supported), e.g. the Section 3.2 exclusion
	// of DP-FS with per-micro-batch gradient accumulation.
	CheckSharding func(Plan) error
}

// The method table is published copy-on-write behind an atomic pointer:
// registrations happen at init time only, while the trait accessors
// (Pipelined, StageDevice, ...) sit on per-op hot paths of schedule
// generation and the replay, so reads must be a plain array index with no
// lock.
var (
	methodTable atomic.Pointer[[]*MethodInfo]
	methodRegMu sync.Mutex // serializes registrations
)

// RegisterMethod publishes the metadata of a schedule method. It is called
// at init time — by this package for the paper's seven methods and by
// schedule packages for their extensions — and panics on a duplicate
// registration or an empty name.
func RegisterMethod(m Method, info MethodInfo) {
	if info.Name == "" {
		panic(fmt.Sprintf("core: RegisterMethod(%d) without a name", int(m)))
	}
	if m < 0 {
		panic(fmt.Sprintf("core: RegisterMethod with negative method %d", int(m)))
	}
	methodRegMu.Lock()
	defer methodRegMu.Unlock()
	var cur []*MethodInfo
	if p := methodTable.Load(); p != nil {
		cur = *p
	}
	n := len(cur)
	if int(m) >= n {
		n = int(m) + 1
	}
	next := make([]*MethodInfo, n)
	copy(next, cur)
	if next[m] != nil {
		panic(fmt.Sprintf("core: method %d registered twice (%q, %q)", int(m), next[m].Name, info.Name))
	}
	next[m] = &info
	methodTable.Store(&next)
}

// info returns the registered metadata pointer, or nil when unregistered.
func (m Method) info() *MethodInfo {
	p := methodTable.Load()
	if p == nil || int(m) < 0 || int(m) >= len(*p) {
		return nil
	}
	return (*p)[m]
}

// Info returns the registered metadata of the method and whether the
// method is registered.
func (m Method) Info() (MethodInfo, bool) {
	if i := m.info(); i != nil {
		return *i, true
	}
	return MethodInfo{}, false
}

// Methods returns every registered method in ascending id order.
func Methods() []Method {
	var out []Method
	if p := methodTable.Load(); p != nil {
		for m, info := range *p {
			if info != nil {
				out = append(out, Method(m))
			}
		}
	}
	return out
}

// MethodByName resolves a method from its display name or one of its
// registered aliases (case-insensitive).
func MethodByName(name string) (Method, bool) {
	want := strings.ToLower(name)
	for _, m := range Methods() {
		info := m.info()
		if strings.ToLower(info.Name) == want {
			return m, true
		}
		for _, a := range info.Aliases {
			if a == want {
				return m, true
			}
		}
	}
	return 0, false
}

// String returns the method's registered display name.
func (m Method) String() string {
	if i := m.info(); i != nil {
		return i.Name
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Looped reports whether the schedule uses a looping placement (N_loop > 1
// is meaningful).
func (m Method) Looped() bool {
	i := m.info()
	return i != nil && i.Looped
}

// Pipelined reports whether the schedule uses pipeline parallelism.
// Unregistered methods report false.
func (m Method) Pipelined() bool {
	i := m.info()
	return i != nil && i.Pipelined
}

// ForwardFirst reports whether the schedule completes the forward pass of
// queued micro-batches before starting backward work (GPipe-style) rather
// than alternating (1F1B-style).
func (m Method) ForwardFirst() bool {
	i := m.info()
	return i != nil && i.ForwardFirst
}

// Window returns the method's gradient-accumulation window
// (single-micro-batch for unregistered methods).
func (m Method) Window() AccumWindow {
	if i := m.info(); i != nil {
		return i.Window
	}
	return WindowSingleMicro
}

// Placement returns the method's stage-to-device mapping (wrap for
// unregistered methods).
func (m Method) Placement() Placement {
	if i := m.info(); i != nil {
		return i.Placement
	}
	return PlacementWrap
}

// noDPFSNonLooped is the Section 3.2 exclusion shared by the non-looped
// pipeline schedules.
func noDPFSNonLooped(p Plan) error {
	if p.Sharding == DPFS {
		return fmt.Errorf("plan: non-looped pipeline with DP-FS is excluded (Section 3.2)")
	}
	return nil
}

// noDPFSDepthAccum is the Appendix E exclusion of DP-FS with
// depth-first-style per-micro-batch gradient accumulation.
func noDPFSDepthAccum(p Plan) error {
	if p.Sharding == DPFS {
		return fmt.Errorf("plan: %v with DP-FS is excluded (Appendix E)", p.Method)
	}
	return nil
}

func init() {
	RegisterMethod(GPipe, MethodInfo{
		Name: "GPipe", Aliases: []string{"gpipe"},
		Pipelined: true, ForwardFirst: true,
		CheckSharding: noDPFSNonLooped,
	})
	RegisterMethod(OneFOneB, MethodInfo{
		Name: "1F1B", Aliases: []string{"1f1b"},
		Pipelined:     true,
		CheckSharding: noDPFSNonLooped,
	})
	RegisterMethod(DepthFirst, MethodInfo{
		Name: "Depth-first", Aliases: []string{"depth-first", "depthfirst", "df"},
		Looped: true, Pipelined: true, Window: WindowSequence,
		CheckPlan: func(p Plan) error {
			if p.NumMicro%p.PP != 0 {
				// Section 4.1: the depth-first schedule constrains N_mb to a
				// multiple of N_PP.
				return fmt.Errorf("plan: depth-first requires NumMicro %% PP == 0 (%d %% %d)", p.NumMicro, p.PP)
			}
			return nil
		},
		CheckSharding: noDPFSDepthAccum,
	})
	RegisterMethod(BreadthFirst, MethodInfo{
		Name: "Breadth-first", Aliases: []string{"breadth-first", "breadthfirst", "bf"},
		Looped: true, Pipelined: true, ForwardFirst: true, Window: WindowFullBatch,
	})
	RegisterMethod(NoPipelineDF, MethodInfo{
		Name: "No-pipeline(DF)", Aliases: []string{"no-pipeline(df)", "nopipeline-df", "np-df"},
		ForwardFirst: true,
	})
	RegisterMethod(NoPipelineBF, MethodInfo{
		Name: "No-pipeline(BF)", Aliases: []string{"no-pipeline(bf)", "nopipeline-bf", "np-bf", "nopipeline"},
		ForwardFirst: true, Window: WindowFullBatch,
	})
	RegisterMethod(Hybrid, MethodInfo{
		Name: "Hybrid", Aliases: []string{"hybrid"},
		Looped: true, Pipelined: true, Window: WindowSequence,
		CheckPlan: func(p Plan) error {
			q := p.SequenceLen()
			if q%p.PP != 0 {
				return fmt.Errorf("plan: hybrid sequence %d must be a multiple of PP %d", q, p.PP)
			}
			if p.NumMicro%q != 0 {
				return fmt.Errorf("plan: hybrid requires NumMicro %% Sequence == 0 (%d %% %d)", p.NumMicro, q)
			}
			return nil
		},
		CheckSharding: noDPFSDepthAccum,
	})
}
