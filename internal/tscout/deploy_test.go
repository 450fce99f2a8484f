package tscout

import (
	"fmt"
	"runtime"
	"testing"
)

// deployConfig is the Collector configuration a dbms server deploys with:
// JIT-compiled.
var deployConfig = CollectorConfig{NumCPUs: 1, PerCPUCapacity: 16, Compile: true}

var fullResources = ResourceSet{CPU: true, Memory: true, Disk: true, Network: true}

// deployAll generates, verifies, loads and compiles the
// Collectors of every subsystem: one TScout deploy, 12 programs.
func deployAll(tb testing.TB) {
	for _, sub := range AllSubsystems {
		if _, err := GenerateCollector(sub, fullResources, deployConfig); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkDeploy is what a TScout deploy costs the host — paid again on
// every dynamic feature change (§5.4), not once a process. Reports ns/op,
// B/op and allocs/op for one deploy of all four subsystems.
//
// Run: go test ./internal/tscout -run xxx -bench Deploy
func BenchmarkDeploy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		deployAll(b)
	}
}

// Ceilings for one GenerateCollector of the full resource set: 1.5× the
// 393 allocations and 0.77 MB it measured when they were set.
const (
	collectorAllocCeiling = 590
	collectorByteCeiling  = 1_150_000
)

// TestGenerateCollectorAllocations holds one GenerateCollector under the
// ceilings at the deploy configuration and at 64 CPUs of 4 096-sample
// rings: a ring owns no slot before its first sample, so the ring set's
// size costs a deploy next to nothing.
func TestGenerateCollectorAllocations(t *testing.T) {
	scaled := deployConfig
	scaled.NumCPUs, scaled.PerCPUCapacity = 64, 4096
	for _, cfg := range []CollectorConfig{deployConfig, scaled} {
		t.Run(fmt.Sprintf("cpus=%d/capacity=%d", cfg.NumCPUs, cfg.PerCPUCapacity), func(t *testing.T) {
			gen := func() {
				if _, err := GenerateCollector(SubsystemExecutionEngine, fullResources, cfg); err != nil {
					t.Fatal(err)
				}
			}
			gen() // warm any lazily built tables
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 5
			for i := 0; i < runs; i++ {
				gen()
			}
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / runs
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			t.Logf("GenerateCollector: %.0f allocations, %.0f bytes", allocs, bytes)
			if allocs > collectorAllocCeiling {
				t.Errorf("GenerateCollector allocates %.0f times, ceiling %d", allocs, collectorAllocCeiling)
			}
			if bytes > collectorByteCeiling {
				t.Errorf("GenerateCollector allocates %.0f bytes, ceiling %d", bytes, collectorByteCeiling)
			}
		})
	}
}
