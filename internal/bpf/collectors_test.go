package bpf_test

import (
	"testing"

	"tscout/internal/bpf"
	"tscout/internal/tscout"
)

// TestEveryPatternFiresOnCollectors sweeps every Collector program codegen
// can emit (4 subsystems × 16 resource masks × 3 markers, optimizer on and
// off) and requires each pattern super-op kind to come out of a peephole
// pass at least once: the patterns exist only because codegen emits their
// shapes, so one that stops matching is dead code and must fail here
// rather than linger.
// It lives beside the JIT, in an external test package, because the micro
// kinds are unexported and tscout imports bpf.
func TestEveryPatternFiresOnCollectors(t *testing.T) {
	var counts [len(bpf.PatternNames)]int
	for _, optimize := range []bool{true, false} {
		for _, sub := range tscout.AllSubsystems {
			for mask := 0; mask < 16; mask++ {
				col, err := tscout.GenerateCollector(sub, tscout.ResourceSet{
					CPU: mask&1 != 0, Memory: mask&2 != 0,
					Disk: mask&4 != 0, Network: mask&8 != 0,
				}, tscout.CollectorConfig{NumCPUs: 1, PerCPUCapacity: 16, Optimize: optimize})
				if err != nil {
					t.Fatalf("%s mask=%d optimize=%v: %v", sub, mask, optimize, err)
				}
				for _, lp := range []*bpf.LoadedProgram{col.Begin, col.End, col.Features} {
					if reason := bpf.PatternCounts(lp, &counts); reason != "" {
						t.Fatalf("%s mask=%d optimize=%v: %s declined: %q",
							sub, mask, optimize, lp.Program().Name, reason)
					}
				}
			}
		}
	}
	for i, n := range counts {
		if n == 0 {
			t.Errorf("pattern %d (%s) matched nothing in any Collector program", i, bpf.PatternNames[i])
		}
	}
	t.Logf("pattern counts %v", counts)
}
