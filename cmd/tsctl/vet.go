package main

import (
	"fmt"
	"io"

	"tscout/internal/bpf"
	"tscout/internal/tscout"
)

// vet runs the Codegen audit: every subsystem × resource mask × marker
// program is generated, verified, optimized, and linted. Verification or
// optimization failures print the failing pc and instruction and make vet
// exit non-zero; lint findings are reported with pc, opcode, and
// provenance but only warnings on unoptimized output are informational —
// a finding that survives optimization means the optimizer missed its
// fixpoint and counts as an error too.
func vet(w io.Writer) int {
	var (
		programs     int
		verifyErrors int
		findings     int
		before       int
		after        int
	)
	for _, sub := range tscout.AllSubsystems {
		for mask := 0; mask < 16; mask++ {
			res := tscout.ResourceSet{
				CPU: mask&1 != 0, Memory: mask&2 != 0,
				Disk: mask&4 != 0, Network: mask&8 != 0,
			}
			for _, np := range tscout.CollectorPrograms(sub, res) {
				programs++
				prov := fmt.Sprintf("%s/%s cpu=%v mem=%v disk=%v net=%v",
					sub, np.Name, res.CPU, res.Memory, res.Disk, res.Network)
				if err := bpf.Verify(np.Prog, 0); err != nil {
					verifyErrors++
					fmt.Fprintf(w, "VERIFY FAIL %s: %v\n", prov, err)
					continue
				}
				opt, stats, err := bpf.Optimize(np.Prog, 0)
				if err != nil {
					verifyErrors++
					fmt.Fprintf(w, "OPTIMIZE FAIL %s: %v\n", prov, err)
					continue
				}
				before += stats.BeforeInsns
				after += stats.AfterInsns
				fs, err := bpf.Lint(opt, 0)
				if err != nil {
					verifyErrors++
					fmt.Fprintf(w, "LINT FAIL %s: %v\n", prov, err)
					continue
				}
				for _, f := range fs {
					findings++
					if f.PC >= 0 && f.PC < len(opt.Insns) {
						fmt.Fprintf(w, "%s: insn %d (%s): %s: %s: %s\n",
							prov, f.PC, opt.Insns[f.PC].String(), f.Severity, f.Rule, f.Message)
					} else {
						fmt.Fprintf(w, "%s: %s: %s: %s\n", prov, f.Severity, f.Rule, f.Message)
					}
				}
			}
		}
	}
	fmt.Fprintf(w, "vet: %d programs (%d subsystems x 16 resource masks x 3 markers)\n",
		programs, len(tscout.AllSubsystems))
	fmt.Fprintf(w, "vet: %d verify/optimize errors, %d residual lint findings\n",
		verifyErrors, findings)
	fmt.Fprintf(w, "vet: optimizer: %d insns -> %d (saved %d)\n", before, after, before-after)
	if verifyErrors > 0 || findings > 0 {
		return 1
	}
	return 0
}
