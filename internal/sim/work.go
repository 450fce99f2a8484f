package sim

// Work describes the computational footprint of one unit of DBMS activity
// (typically one operating-unit execution). The simulated kernel converts a
// Work descriptor into elapsed virtual time and hardware counter deltas
// using the active HardwareProfile. Operators fill it from the real data
// volumes they process, so counter values track the workload faithfully.
type Work struct {
	// Instructions is the number of retired instructions, before noise.
	Instructions float64
	// BytesTouched is the total data volume read or written by the CPU.
	// It determines cache references.
	BytesTouched float64
	// WorkingSetBytes is the size of the data region the accesses are
	// spread over; it determines the LLC miss rate relative to the
	// profile's L3 size.
	WorkingSetBytes float64
	// RandomAccessFraction in [0,1] scales the penalty of working sets
	// that exceed the cache: sequential scans prefetch well, index
	// probes do not.
	RandomAccessFraction float64
	// AllocBytes is memory allocated during the unit (tracked by the
	// user-level memory probe, paper §4.2).
	AllocBytes int64
	// DiskWriteBytes is the block-IO volume written during the unit; the
	// in-memory DBMS never reads its disk.
	DiskWriteBytes int64
	// DiskOps is the number of distinct IO requests.
	DiskOps int64
	// NetRecvBytes and NetSendBytes are socket traffic during the unit.
	NetRecvBytes int64
	NetSendBytes int64
	// NetMessages is the number of protocol messages processed.
	NetMessages int64
}
