package sim

// Clock is a virtual-time cursor measured in nanoseconds. Each simulated
// task owns one; the discrete-event driver in the workload package merges
// per-terminal clocks into a global timeline by always advancing the
// terminal whose clock is furthest behind.
type Clock struct {
	now int64
}

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by ns nanoseconds. Negative advances are
// ignored: virtual time never runs backwards.
func (c *Clock) Advance(ns int64) {
	if ns > 0 {
		c.now += ns
	}
}

// AdvanceTo moves the clock forward to t if t is in the future. It returns
// the amount of time waited (zero if t has already passed). Used for
// simulated waits such as group-commit flush deadlines and latch queues.
func (c *Clock) AdvanceTo(t int64) int64 {
	if t <= c.now {
		return 0
	}
	w := t - c.now
	c.now = t
	return w
}
