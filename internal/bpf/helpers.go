package bpf

// Helper IDs callable via OpCall. The set mirrors what TScout's Collector
// needs: map plumbing (nested-OU state lives in a hash map, §5.2), perf
// output (§3.2), and reads of the kernel state each probe consumes (§4).
// The IDs are the wire ABI of the checked-in fuzz corpora: never renumber
// one. IDs 4, 5 and 13 are unassigned; the verifier rejects a call to any
// of them.
const (
	// HelperMapLookup: r1=map, r2=key ptr -> r0 = value ptr or NULL.
	HelperMapLookup = 1
	// HelperMapUpdate: r1=map, r2=key ptr, r3=value ptr -> r0 = 0/err.
	HelperMapUpdate = 2
	// HelperMapDelete: r1=map, r2=key ptr -> r0 = 1 if deleted.
	HelperMapDelete = 3
	// HelperPerfOutput: r1=perf buffer, r2=data ptr, r3=const size.
	HelperPerfOutput = 6
	// HelperReadCounter: r1=counter id, r2=part (see CounterPart*) -> r0.
	HelperReadCounter = 7
	// HelperReadIOAC: r1=field (see IOACField*) -> r0.
	HelperReadIOAC = 8
	// HelperReadSock: r1=field (see SockField*) -> r0.
	HelperReadSock = 9
	// HelperGetPID: -> r0 = current task pid.
	HelperGetPID = 10
	// HelperKtime: -> r0 = current virtual time ns.
	HelperKtime = 11
	// HelperGetArg: r1=index -> r0 = tracepoint argument (0 if OOB).
	HelperGetArg = 12
	// HelperGetTaskGen: -> r0 = current task generation tag. Unlike the
	// pid it is never reused, so gen-keyed Collector state cannot pair
	// events across a pid recycle.
	HelperGetTaskGen = 14
	// HelperGetCPU: -> r0 = the CPU the task is currently running on.
	HelperGetCPU = 15
)

// Parts readable through HelperReadCounter. The raw/enabled/running split
// lets generated code perform the multiplexing normalization of §4.1 inside
// the Collector (normalized = raw * enabled / running).
const (
	CounterPartRaw     = 0
	CounterPartEnabled = 1
	CounterPartRunning = 2
)

// Fields readable through HelperReadIOAC (task_struct ioac, §4.4).
const (
	IOACReadBytes  = 0
	IOACWriteBytes = 1
	IOACReadOps    = 2
	IOACWriteOps   = 3
)

// Fields readable through HelperReadSock (tcp_sock, §4.3).
const (
	SockBytesReceived = 0
	SockBytesSent     = 1
	SockSegsIn        = 2
	SockSegsOut       = 3
)

// ArgKind classifies a helper argument for the verifier.
type ArgKind int

// Helper argument kinds.
const (
	// ArgScalar is any initialized scalar.
	ArgScalar ArgKind = iota
	// ArgConstMap must be a map handle from OpLoadMapPtr, of a type the
	// helper takes: a PerCPURing for perf output, any other map for
	// lookup, a HashMap for update and delete.
	ArgConstMap
	// ArgPtrKey must be a stack pointer, which is at one exact slot (every
	// pointer has one offset from R10), with the map's key size of
	// initialized bytes (the map comes from the closest preceding
	// ArgConstMap). A callFrame reads every ArgPtr* at a constant stack
	// index.
	ArgPtrKey
	// ArgPtrValue must point at an exact stack slot with the map's value
	// size of initialized bytes.
	ArgPtrValue
	// ArgPtrSized must point at an exact stack slot whose initialized
	// length is given by the following ArgSizeConst argument.
	ArgPtrSized
	// ArgSizeConst must be a compile-time-known scalar constant > 0.
	ArgSizeConst
)

// RetKind classifies a helper return value for the verifier.
type RetKind int

// Helper return kinds.
const (
	// RetScalar returns an ordinary scalar in R0.
	RetScalar RetKind = iota
	// RetMapValueOrNull returns a pointer to a map value that MUST be
	// null-checked before dereference.
	RetMapValueOrNull
)

// HelperSpec describes a helper's signature and kernel-space cost. Pure
// helpers only read task/kernel state and write R0 — they have no effect
// observable outside the invocation, so the kernel event stream leaves them
// out and the JIT fuses each into a micro-op of its own instead of binding
// it to a callFrame. Map helpers are all impure: even lookup can
// materialize state (PerTaskMap auto-creates the slot on first lookup).
type HelperSpec struct {
	Name   string
	Args   []ArgKind
	Ret    RetKind
	CostNS int64
	Pure   bool
}

var helperSpecs = map[int64]HelperSpec{
	HelperMapLookup: {"map_lookup_elem",
		[]ArgKind{ArgConstMap, ArgPtrKey}, RetMapValueOrNull, 12, false},
	HelperMapUpdate: {"map_update_elem",
		[]ArgKind{ArgConstMap, ArgPtrKey, ArgPtrValue}, RetScalar, 18, false},
	HelperMapDelete: {"map_delete_elem",
		[]ArgKind{ArgConstMap, ArgPtrKey}, RetScalar, 13, false},
	HelperPerfOutput: {"perf_event_output",
		[]ArgKind{ArgConstMap, ArgPtrSized, ArgSizeConst}, RetScalar, 40, false},
	HelperReadCounter: {"read_perf_counter",
		[]ArgKind{ArgScalar, ArgScalar}, RetScalar, 11, true},
	HelperReadIOAC: {"read_task_ioac",
		[]ArgKind{ArgScalar}, RetScalar, 8, true},
	HelperReadSock: {"read_tcp_sock",
		[]ArgKind{ArgScalar}, RetScalar, 8, true},
	HelperGetPID:     {"get_current_pid", nil, RetScalar, 3, true},
	HelperKtime:      {"ktime_get_ns", nil, RetScalar, 4, true},
	HelperGetArg:     {"get_tracepoint_arg", []ArgKind{ArgScalar}, RetScalar, 2, true},
	HelperGetTaskGen: {"get_task_gen", nil, RetScalar, 3, true},
	HelperGetCPU:     {"get_smp_processor_id", nil, RetScalar, 2, true},
}

// HelperByID returns the spec for a helper ID.
func HelperByID(id int64) (HelperSpec, bool) {
	s, ok := helperSpecs[id]
	return s, ok
}
