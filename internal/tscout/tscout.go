// Package tscout implements the TScout training-data collection framework
// of Butrovich et al. (SIGMOD 2022). Developers annotate DBMS operating
// units (OUs) with BEGIN/END/FEATURES markers; TScout code-generates a
// kernel-space Collector (a verified BPF program per subsystem) that
// snapshots hardware metrics at OU boundaries, pairs them with the
// DBMS-provided input features, and ships completed samples through a perf
// ring buffer to the user-space Processor, which transforms them into
// training points for the DBMS's behavior models and writes those to its
// Sink — the one place a training point is kept (internal/archive in
// production).
//
// Three collection modes are supported for the §6.2 comparison:
// Kernel-Continuous (the paper's recommended configuration), User-Toggle,
// and User-Continuous.
package tscout

import (
	"fmt"

	"tscout/internal/kernel"
)

// SubsystemID identifies a DBMS subsystem. OUs in the same subsystem share
// one Collector, one sampling rate, and one set of input feature semantics
// (paper §2.4, §5.3).
type SubsystemID uint8

// The four modeled subsystems of the paper's evaluation.
const (
	SubsystemExecutionEngine SubsystemID = iota
	SubsystemNetworking
	SubsystemLogSerializer
	SubsystemDiskWriter

	// NumSubsystems bounds per-subsystem arrays.
	NumSubsystems
)

// String returns the subsystem's display name.
func (s SubsystemID) String() string {
	switch s {
	case SubsystemExecutionEngine:
		return "execution-engine"
	case SubsystemNetworking:
		return "networking"
	case SubsystemLogSerializer:
		return "log-serializer"
	case SubsystemDiskWriter:
		return "disk-writer"
	}
	return fmt.Sprintf("subsystem-%d", uint8(s))
}

// AllSubsystems lists every subsystem.
var AllSubsystems = []SubsystemID{
	SubsystemExecutionEngine, SubsystemNetworking,
	SubsystemLogSerializer, SubsystemDiskWriter,
}

// OUID identifies one operating unit.
type OUID uint16

// ResourceSet selects which hardware categories a subsystem's Collector
// monitors (the per-subsystem probe checkboxes of Fig. 3). Memory is
// always user-level (paper §4.2): the DBMS reports allocation bytes at the
// FEATURES marker.
type ResourceSet struct {
	CPU     bool
	Memory  bool
	Disk    bool
	Network bool
}

// OUDef declares one operating unit: its identity, subsystem, and the
// names of its input features (paper §3.1).
type OUDef struct {
	ID        OUID
	Name      string
	Subsystem SubsystemID
	Features  []string
}

// Mode selects the metrics-collection strategy (paper §6.2).
type Mode int

// Collection modes.
const (
	// KernelContinuous uses kernel-level probes with continuously
	// enabled perf counters: one mode switch per marker event, all
	// metrics gathered by the BPF Collector. The paper's winner.
	KernelContinuous Mode = iota
	// UserToggle uses user-level probes that enable perf counters at
	// BEGIN and read+disable them at END: three syscalls per sampled OU.
	UserToggle
	// UserContinuous keeps counters always enabled (paying PMU
	// save/restore on every context switch) and reads them with a
	// single syscall per sampled OU.
	UserContinuous
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case KernelContinuous:
		return "Kernel-Continuous"
	case UserToggle:
		return "User-Toggle"
	case UserContinuous:
		return "User-Continuous"
	}
	return fmt.Sprintf("mode-%d", int(m))
}

// MaxFeatures is the per-sample feature-vector capacity of the generated
// Collector (bounded so the BPF stack frame and copy loops verify).
const MaxFeatures = 16

// MaxOUDepth bounds how deeply the Collector nests OUs (its per-task depth
// counter, paper §5.2).
const MaxOUDepth = 16

// Config tunes a TScout deployment.
type Config struct {
	// Mode is the collection strategy; the zero value is the paper's
	// recommended Kernel-Continuous.
	Mode Mode
	// RingCapacity is the per-CPU perf ring capacity in samples (default
	// 4096): each subsystem gets one ring of this size per simulated CPU,
	// so total buffering is RingCapacity × kernel CPUs per subsystem.
	RingCapacity int
	// Seed feeds the sampling-bit shuffle.
	Seed int64
	// ProcessorSink receives finished training points — the only place
	// they are kept; with nil they are counted and discarded.
	ProcessorSink Sink
	// DisableProcessorFeedback turns off the automatic sampling-rate
	// reduction when the Processor falls behind (paper §3.2).
	DisableProcessorFeedback bool
	// ProcessorParallelism is the number of modeled Processor drain
	// threads (default 1, the paper's single-threaded Processor). The
	// global per-period sample budget scales with it; the per-CPU rings
	// are distributed over the threads by ringOwner.
	ProcessorParallelism int
	// OptimizeCollectors is ignored: codegen emits each Collector program
	// in its final form, so there is no optimizer pass left to select.
	OptimizeCollectors bool //tsvet:ignore unread-field benchmark/ sets it until ROADMAP item 1-S
	// CompileCollectors JIT-compiles every generated Collector program at
	// Deploy, replacing interpretation on the marker hot path with
	// verifier-proof-guided native blocks.
	// A program the JIT cannot compile fails Deploy; per-program sizes
	// and dispatch counts appear in ProcessorStats.
	CompileCollectors bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.RingCapacity <= 0 {
		out.RingCapacity = 4096
	}
	if out.ProcessorParallelism < 1 {
		out.ProcessorParallelism = 1
	}
	return out
}

// TScout is one deployed instance of the framework, attached to a
// simulated kernel alongside the DBMS.
type TScout struct {
	cfg    Config
	kernel *kernel.Kernel

	ous        map[OUID]*OUDef
	subsystems [NumSubsystems]*subsystem
	tasks      map[int]*taskState
	sampler    *Sampler
	processor  *Processor
	deployed   bool
}

// subsystem holds the per-subsystem runtime: the generated Collector
// programs and their tracepoints (kernel mode), and the resource set.
type subsystem struct {
	id        SubsystemID
	resources ResourceSet

	beginTP, endTP, featTP *kernel.Tracepoint
	collector              *Collector // kernel-mode generated programs; nil in user modes
}

// taskState is TScout's per-thread bookkeeping: the sampling-bit offset,
// the current event decision per subsystem, and (in user modes) the
// in-flight OU stack that mirrors the Collector's entries map. It lives in
// ts.tasks and, for the marker path, in the task's own local slot; owner
// says whose it is, since two deployments may drive one task.
type taskState struct {
	owner         *TScout
	task          *kernel.Task
	sampleOffsets [NumSubsystems]int
	eventSampled  [NumSubsystems]bool
	userStack     []userFrame
	userErrors    int64
	wrapClamps    int64
	// featArgs is the FEATURES tracepoint's argument scratch, refilled on
	// every hit (a TraceHandler may not retain its args).
	featArgs []uint64
}

type userFrame struct {
	ou       OUID
	ended    bool
	beginNS  int64
	counters [5]float64
	ioacR    int64
	ioacW    int64
	sockR    int64
	sockS    int64
	metrics  Metrics
}

// New creates an undeployed TScout bound to a kernel. Register OUs, then
// call Deploy.
func New(k *kernel.Kernel, cfg Config) *TScout {
	c := cfg.withDefaults()
	ts := &TScout{
		cfg:    c,
		kernel: k,
		ous:    make(map[OUID]*OUDef),
		tasks:  make(map[int]*taskState),
	}
	ts.sampler = NewSampler(c.Seed)
	ts.processor = NewProcessor(ts, c.ProcessorSink)
	return ts
}

// Processor returns the user-space Processor component.
func (ts *TScout) Processor() *Processor { return ts.processor }

// Sampler returns the sampling controller.
func (ts *TScout) Sampler() *Sampler { return ts.sampler }

// RegisterOU declares an operating unit and returns its Marker triplet.
// All OUs must be registered before Deploy; the set of features and
// resources drives code generation (paper §3.1: "TS extracts these markers
// and codegens a custom program").
func (ts *TScout) RegisterOU(def OUDef, res ResourceSet) (*Marker, error) {
	if ts.deployed {
		return nil, fmt.Errorf("tscout: RegisterOU after Deploy (redeploy required, §5.4)")
	}
	if def.Subsystem >= NumSubsystems {
		return nil, fmt.Errorf("tscout: unknown subsystem %d", def.Subsystem)
	}
	if len(def.Features) > MaxFeatures {
		return nil, fmt.Errorf("tscout: OU %q has %d features, max %d", def.Name, len(def.Features), MaxFeatures)
	}
	if _, dup := ts.ous[def.ID]; dup {
		return nil, fmt.Errorf("tscout: duplicate OU id %d", def.ID)
	}
	d := def
	ts.ous[def.ID] = &d

	sub := ts.subsystems[def.Subsystem]
	if sub == nil {
		sub = &subsystem{
			id:      def.Subsystem,
			beginTP: ts.kernel.Tracepoint(tracepointName(def.Subsystem, "begin")),
			endTP:   ts.kernel.Tracepoint(tracepointName(def.Subsystem, "end")),
			featTP:  ts.kernel.Tracepoint(tracepointName(def.Subsystem, "features")),
		}
		ts.subsystems[def.Subsystem] = sub
	}
	// The subsystem's resource set is the union of its OUs' needs.
	sub.resources.CPU = sub.resources.CPU || res.CPU
	sub.resources.Memory = sub.resources.Memory || res.Memory
	sub.resources.Disk = sub.resources.Disk || res.Disk
	sub.resources.Network = sub.resources.Network || res.Network

	return &Marker{ts: ts, def: &d, sub: sub, idArg: []uint64{uint64(d.ID)}}, nil
}

// MustRegisterOU is RegisterOU for static OU tables; it panics on error.
func (ts *TScout) MustRegisterOU(def OUDef, res ResourceSet) *Marker {
	m, err := ts.RegisterOU(def, res)
	if err != nil {
		panic(err)
	}
	return m
}

// OU returns a registered OU definition.
func (ts *TScout) OU(id OUID) (*OUDef, bool) {
	d, ok := ts.ous[id]
	return d, ok
}

// Deploy finalizes registration: in kernel mode it runs code generation,
// verifies and loads the per-subsystem Collector programs, and attaches
// them to the marker tracepoints (the Setup Phase → Runtime Phase handoff
// of Fig. 3). In user modes no kernel programs are generated.
func (ts *TScout) Deploy() error {
	if ts.deployed {
		return fmt.Errorf("tscout: already deployed")
	}
	if ts.cfg.Mode == KernelContinuous {
		for _, sub := range ts.subsystems {
			if sub == nil {
				continue
			}
			col, err := GenerateCollector(sub.id, sub.resources, CollectorConfig{
				NumCPUs:        ts.kernel.NumCPUs(),
				PerCPUCapacity: ts.cfg.RingCapacity,
				Compile:        ts.cfg.CompileCollectors,
			})
			if err != nil {
				return fmt.Errorf("tscout: codegen for %s: %w", sub.id, err)
			}
			col.Attach(sub.beginTP, sub.endTP, sub.featTP)
			sub.collector = col
		}
	}
	ts.deployed = true
	return nil
}

// CollectorFor exposes the generated kernel program for a subsystem
// (nil in user modes or before Deploy); used by tests and tooling.
func (ts *TScout) CollectorFor(s SubsystemID) *Collector {
	if ts.subsystems[s] == nil {
		return nil
	}
	return ts.subsystems[s].collector
}

func tracepointName(s SubsystemID, kind string) string {
	return "tscout/" + s.String() + "/" + kind
}

// taskStateFor returns (creating if needed) the per-task state. Every
// marker and every event asks, so the answer is parked in the task's local
// slot: after first contact it is a type assertion and an owner check, with
// no map lookup on the marker path. A task that is new to this deployment
// — including one that recycled a dead task's pid, whose slot starts empty
// — or whose slot currently holds another deployment's state goes through
// the pid-keyed table.
func (ts *TScout) taskStateFor(t *kernel.Task) *taskState {
	if st, ok := t.Local().(*taskState); ok && st.owner == ts {
		return st
	}
	st := ts.lookupTaskState(t)
	t.SetLocal(st)
	return st
}

// lookupTaskState finds or creates t's state in the pid-keyed table. In
// continuous modes, first contact enables the task's perf counters so the
// PMU is live for the task's whole lifetime.
func (ts *TScout) lookupTaskState(t *kernel.Task) *taskState {
	st, ok := ts.tasks[t.PID]
	var carriedErrors, carriedClamps int64
	if ok && st.task != t {
		// PID reuse: a new task recycled a dead task's pid. Inheriting the
		// dead task's state would pair the new task's markers with a stale
		// in-flight stack and stale sampling decisions — and would skip the
		// first-contact perf-counter setup, so every sample the respawned
		// task produced would read disabled (zero) counters. Start fresh,
		// carrying only the dead task's cumulative error counters so the
		// deployment-wide totals survive the replacement.
		carriedErrors, carriedClamps = st.userErrors, st.wrapClamps
		ok = false
	}
	if !ok {
		st = &taskState{owner: ts, task: t, userErrors: carriedErrors, wrapClamps: carriedClamps}
		ts.tasks[t.PID] = st
		switch ts.cfg.Mode {
		case KernelContinuous:
			// CPU-wide counters read by the BPF Collector: no PMU state
			// to save on context switches.
			t.Perf().Enable(kernel.AllCounters...)
		case UserContinuous:
			// Per-task counters stay armed for the task's lifetime; the
			// kernel saves/restores PMU state at every context switch
			// (the 2-8% standing cost of §6.2).
			t.Perf().SetPerTask(true)
			t.Perf().Enable(kernel.AllCounters...)
		case UserToggle:
			t.Perf().SetPerTask(true)
		}
	}
	return st
}

// BeginEvent makes the per-event sampling decision for a subsystem (a
// query for the execution engine and networking, a buffer for the WAL
// subsystems; paper §5.3). Markers between this call and the next
// BeginEvent honor the decision. It returns whether the event is sampled.
//
// The check itself is a handful of user-space instructions (the
// "lightweight sampling logic" of §3.1) and is charged even when sampling
// is off — it is the irreducible cost all three modes share.
func (ts *TScout) BeginEvent(t *kernel.Task, s SubsystemID) bool {
	st := ts.taskStateFor(t)
	t.ChargeUserNS(samplingCheckNS)
	sampled := ts.sampler.ShouldSample(s, &st.sampleOffsets[s])
	st.eventSampled[s] = sampled
	return sampled
}

// userWrapClamps sums the counter-delta clamps recorded by the user-mode
// probes (surfaced as Stats().User.WrapClamps).
func (ts *TScout) userWrapClamps() int64 {
	var n int64
	for _, st := range ts.tasks {
		n += st.wrapClamps
	}
	return n
}
