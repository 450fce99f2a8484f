package main

import (
	"fmt"
	"io"

	"tscout/internal/bpf"
	"tscout/internal/tscout"
)

// vet runs the Codegen audit: every subsystem × resource mask × marker
// program is generated and verified exactly as a deploy loads it, and the
// instructions are totalled. A verification failure prints the failing pc
// and instruction with the program's provenance and makes vet exit
// non-zero. Codegen emits each program in its final form:
// internal/bpf/testdata/collectors.golden pins every program instruction by
// instruction and TestVetClean pins the total, so a change to what codegen
// emits fails both.
func vet(w io.Writer) int {
	var programs, insns, verifyErrors int
	for _, sub := range tscout.AllSubsystems {
		for mask := 0; mask < 8; mask++ {
			res := tscout.ResourceSet{
				CPU: mask&1 != 0, Disk: mask&2 != 0, Network: mask&4 != 0,
			}
			for _, np := range tscout.CollectorPrograms(sub, res) {
				programs++
				insns += len(np.Prog.Insns)
				if err := bpf.Verify(np.Prog, 0); err != nil {
					verifyErrors++
					fmt.Fprintf(w, "VERIFY FAIL %s/%s cpu=%v disk=%v net=%v: %v\n",
						sub, np.Name, res.CPU, res.Disk, res.Network, err)
				}
			}
		}
	}
	fmt.Fprintf(w, "vet: %d programs (%d subsystems x 8 resource masks x 3 markers), %d insns\n",
		programs, len(tscout.AllSubsystems), insns)
	fmt.Fprintf(w, "vet: %d verify errors\n", verifyErrors)
	if verifyErrors > 0 {
		return 1
	}
	return 0
}
