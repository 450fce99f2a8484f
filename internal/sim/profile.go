// Package sim provides the virtual-time substrate that the simulated kernel,
// the DBMS, and the TScout framework run on. All performance in this
// repository is measured in virtual nanoseconds charged against a
// HardwareProfile, which makes every experiment deterministic for a given
// seed and lets the benchmark harness "migrate" the DBMS between machines by
// swapping profiles (paper §6.4, §6.6).
//
// One goroutine drives a simulation, and virtual CPUs interleave only in
// virtual time. Per-CPU timelines, epoch barriers (Epochs) and the kernel's
// seeded Interleaver model all the concurrency the paper measures — markers
// on many CPUs racing a Processor drain — so every order a simulation
// observes is a function of its seed, and nothing in one takes a lock or an
// atomic. Separate simulations may run on separate goroutines because they
// share no mutable state: every package-level variable is read-only.
package sim

// HardwareProfile describes the simulated machine. The two canonical
// instances, LargeHW and SmallHW, mirror the paper's evaluation machines:
// a 2x20-core Intel Xeon Gold 5218R server and a 6-core Intel Core
// i7-10710U NUC.
type HardwareProfile struct {
	// Name identifies the profile in experiment output.
	Name string
	// Cores is the number of physical cores available to the DBMS.
	Cores int
	// ClockGHz is the effective sustained core clock in GHz.
	ClockGHz float64
	// BaseIPC is the instructions-per-cycle achieved when every access
	// hits in cache. Memory stalls reduce the effective IPC.
	BaseIPC float64
	// L3CacheBytes is the size of the last-level cache. Working sets
	// larger than this suffer the MissPenaltyCycles on a growing
	// fraction of their cache references.
	L3CacheBytes int64
	// CacheLineBytes is the cache line size used to derive cache
	// reference counts from bytes touched.
	CacheLineBytes int64
	// MissPenaltyCycles is the cost of an LLC miss in core cycles.
	MissPenaltyCycles float64

	// DiskWriteBytesPerNS and DiskReadBytesPerNS are the sequential
	// throughput of the storage device.
	DiskWriteBytesPerNS float64
	DiskReadBytesPerNS  float64
	// DiskLatencyNS is the fixed setup latency of one IO request.
	DiskLatencyNS int64

	// NetBytesPerNS is the loopback/NIC throughput seen by the wire
	// protocol. NetLatencyNS is the per-message latency floor.
	NetBytesPerNS float64
	NetLatencyNS  int64

	// SyscallNS is the in-kernel work of a typical metrics syscall
	// (excluding the mode switch, charged separately).
	SyscallNS int64
	// ModeSwitchNS is the cost of one user<->kernel transition pair.
	ModeSwitchNS int64
	// CtxSwitchNS is the base cost of a context switch.
	CtxSwitchNS int64
	// PMUSaveNS is the extra context-switch cost of saving and restoring
	// PMU state while perf counters are continuously enabled
	// (paper §6.2: User-Continuous loses 2-8% even at 0% sampling).
	PMUSaveNS int64
	// PMURegisters is the number of hardware counters that can be
	// active simultaneously; enabling more forces multiplexing and the
	// normalization step TScout performs transparently (paper §4.1).
	PMURegisters int
	// BPFInsnNS is the cost of interpreting one Collector instruction
	// in kernel space.
	BPFInsnNS float64
}

// LargeHW models the paper's 2x20-core Intel Xeon Gold 5218R server with
// 27.5 MB of L3 cache per socket and a Samsung PM983 datacenter SSD.
var LargeHW = HardwareProfile{
	Name:                "large-hw",
	Cores:               40,
	ClockGHz:            2.1,
	BaseIPC:             2.2,
	L3CacheBytes:        27_500_000,
	CacheLineBytes:      64,
	MissPenaltyCycles:   160,
	DiskWriteBytesPerNS: 1.4, // ~1.4 GB/s sequential write
	DiskReadBytesPerNS:  3.0,
	DiskLatencyNS:       22_000,
	NetBytesPerNS:       2.5,
	NetLatencyNS:        4_500,
	SyscallNS:           180,
	ModeSwitchNS:        120,
	CtxSwitchNS:         1_500,
	PMUSaveNS:           280,
	PMURegisters:        4,
	BPFInsnNS:           0.25,
}

// SmallHW models the paper's 6-core Intel Core i7-10710U machine with 12 MB
// of L3 cache and a Samsung 970 EVO Plus consumer SSD. Its clock is higher
// than LargeHW's, which is exactly the trap §6.4 describes: clock speed is
// the only CPU feature in the behavior models, yet the smaller L3 dominates
// query performance.
var SmallHW = HardwareProfile{
	Name:                "small-hw",
	Cores:               6,
	ClockGHz:            2.8,
	BaseIPC:             2.4,
	L3CacheBytes:        12_000_000,
	CacheLineBytes:      64,
	MissPenaltyCycles:   190,
	DiskWriteBytesPerNS: 0.9,
	DiskReadBytesPerNS:  1.8,
	DiskLatencyNS:       35_000,
	NetBytesPerNS:       1.8,
	NetLatencyNS:        6_000,
	SyscallNS:           160,
	ModeSwitchNS:        110,
	CtxSwitchNS:         1_350,
	PMUSaveNS:           260,
	PMURegisters:        4,
	BPFInsnNS:           0.24,
}

// CyclesToNS converts core cycles on this profile to nanoseconds.
func (p *HardwareProfile) CyclesToNS(cycles float64) int64 {
	if cycles <= 0 {
		return 0
	}
	return int64(cycles / p.ClockGHz)
}
