package main

import (
	"fmt"
	"io"

	"tscout/internal/bpf"
	"tscout/internal/tscout"
)

// vet runs the Codegen audit: every subsystem × resource mask × marker
// program is generated, verified and linted exactly as a deploy loads it.
// A verification failure prints the failing pc and instruction; a lint
// finding prints with its pc, opcode and provenance. Either makes vet exit
// non-zero: codegen emits each program in its final form, so a dead store
// or any other finding is a codegen bug.
func vet(w io.Writer) int {
	var programs, insns, verifyErrors, findings int
	for _, sub := range tscout.AllSubsystems {
		for mask := 0; mask < 16; mask++ {
			res := tscout.ResourceSet{
				CPU: mask&1 != 0, Memory: mask&2 != 0,
				Disk: mask&4 != 0, Network: mask&8 != 0,
			}
			for _, np := range tscout.CollectorPrograms(sub, res) {
				programs++
				insns += len(np.Prog.Insns)
				prov := fmt.Sprintf("%s/%s cpu=%v mem=%v disk=%v net=%v",
					sub, np.Name, res.CPU, res.Memory, res.Disk, res.Network)
				fs, err := bpf.Lint(np.Prog, 0)
				if err != nil {
					verifyErrors++
					fmt.Fprintf(w, "VERIFY FAIL %s: %v\n", prov, err)
					continue
				}
				for _, f := range fs {
					findings++
					if f.PC >= 0 {
						fmt.Fprintf(w, "%s: insn %d (%s): %s: %s: %s\n",
							prov, f.PC, np.Prog.Insns[f.PC].String(), f.Severity, f.Rule, f.Message)
					} else {
						fmt.Fprintf(w, "%s: %s: %s: %s\n", prov, f.Severity, f.Rule, f.Message)
					}
				}
			}
		}
	}
	fmt.Fprintf(w, "vet: %d programs (%d subsystems x 16 resource masks x 3 markers), %d insns\n",
		programs, len(tscout.AllSubsystems), insns)
	fmt.Fprintf(w, "vet: %d verify errors, %d lint findings\n", verifyErrors, findings)
	if verifyErrors > 0 || findings > 0 {
		return 1
	}
	return 0
}
