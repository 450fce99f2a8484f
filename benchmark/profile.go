package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// profiler scopes -cpuprofile/-memprofile to one phase (off, collect or
// learn) of the one workload a single run executes. A nil profiler does
// nothing.
type profiler struct {
	phase    string
	cpu, mem *os.File
}

func newProfiler(phase, cpuPath, memPath string) (*profiler, error) {
	if cpuPath == "" && memPath == "" {
		return nil, nil
	}
	switch phase {
	case "off", "collect", "learn":
	default:
		return nil, fmt.Errorf("-phase must be off, collect or learn, not %q", phase)
	}
	p := &profiler{phase: phase}
	var err error
	if cpuPath != "" {
		if p.cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
	}
	if memPath != "" {
		if p.mem, err = os.Create(memPath); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// start begins profiling if phase is the selected one; the returned func
// ends it and writes the profiles.
func (p *profiler) start(phase string) func() {
	if p == nil || phase != p.phase {
		return func() {}
	}
	if p.cpu != nil {
		if err := pprof.StartCPUProfile(p.cpu); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: cpu profile:", err)
		}
	}
	return func() {
		if p.cpu != nil {
			pprof.StopCPUProfile()
			p.cpu.Close()
		}
		if p.mem != nil {
			runtime.GC() // bring the allocation statistics up to date
			if err := pprof.Lookup("allocs").WriteTo(p.mem, 0); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: mem profile:", err)
			}
			p.mem.Close()
		}
	}
}
