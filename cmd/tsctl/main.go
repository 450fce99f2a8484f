// Command tsctl inspects a TScout deployment: the registered OUs and
// their subsystems, the generated Collector programs (with disassembly),
// and the kernel tracepoints they attach to. It builds the same
// instrumented DBMS the benchmarks use, runs TScout's Setup Phase, and
// dumps what the Codegen produced — the artifacts a developer would audit
// before trusting kernel-space collection in production.
//
// Usage:
//
//	tsctl ous                   list operating units and subsystems
//	tsctl tracepoints           list kernel tracepoints
//	tsctl disasm <subsystem>    disassemble a Collector's three programs
//	                            (execution-engine, networking,
//	                             log-serializer, disk-writer)
//	tsctl stats                 run a short instrumented burst and print
//	                            the Processor pipeline's self-observed
//	                            telemetry (per-subsystem drain counters,
//	                            budgets, feedback actions, JIT dispatch)
//	tsctl vet                   verify every generated Collector program
//	                            across all subsystems and resource masks
//	                            and total their instructions; non-zero
//	                            exit on any failure
//	tsctl archive inspect [-json] <file>
//	                            summarize a columnar training archive:
//	                            segments, blocks, rows, bytes, row counts
//	                            per OU and subsystem
//	tsctl archive export -csv <file>
//	                            write the archive's rows as CSV to stdout,
//	                            one row per training point
//	tsctl archive verify [-json] <file>
//	                            deep-check checksums, column encodings, and
//	                            zone maps; exit 1 on corruption
//	tsctl autopilot [-txns N] [-terminals N] [-seed N] [-report-every N]
//	                            run an instrumented TPC-C burst with the
//	                            online-retraining controller closed over the
//	                            pipeline, reporting live per-subsystem
//	                            sampling rates and prequential error as the
//	                            loop converges and throttles
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"tscout/internal/bpf"
	"tscout/internal/dbms"
	"tscout/internal/tscout"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

func main() {
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: tsctl ous|tracepoints|disasm <subsystem>|stats|vet|archive|autopilot")
		os.Exit(2)
	}
	if flag.Arg(0) == "archive" {
		// archive inspects a self-describing segment file; no server needed.
		os.Exit(archiveCmd(os.Stdout, os.Stderr, flag.Args()[1:]))
	}
	if flag.Arg(0) == "vet" {
		// vet audits the Codegen output directly; it needs no server.
		os.Exit(vet(os.Stdout))
	}
	if flag.Arg(0) == "autopilot" {
		// autopilot builds its own archive-sinked server with the
		// controller attached; the default server below has neither.
		os.Exit(autopilotCmd(os.Stdout, os.Stderr, flag.Args()[1:]))
	}
	srv, err := dbms.NewServer(dbms.Config{
		Seed:       1,
		Instrument: true,
		WAL:        wal.Config{GroupSize: 1},
	})
	if err != nil {
		// A Collector verification failure names its pc and instruction;
		// print it and exit non-zero rather than limping on.
		fmt.Fprintf(os.Stderr, "tsctl: %v\n", err)
		os.Exit(1)
	}

	switch flag.Arg(0) {
	case "ous":
		listOUs(srv)
	case "tracepoints":
		names := srv.Kernel.TracepointNames()
		sort.Strings(names)
		for _, n := range names {
			tp := srv.Kernel.Tracepoint(n)
			fmt.Printf("%-45s attached=%v\n", n, tp.Attached())
		}
	case "disasm":
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: tsctl disasm <subsystem>")
			os.Exit(2)
		}
		if err := disasm(srv, flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "tsctl: %v\n", err)
			os.Exit(1)
		}
	case "stats":
		if err := stats(srv); err != nil {
			fmt.Fprintf(os.Stderr, "tsctl: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "tsctl: unknown command %q\n", flag.Arg(0))
		os.Exit(2)
	}
}

func listOUs(srv *dbms.Server) {
	type row struct {
		id   tscout.OUID
		name string
		sub  tscout.SubsystemID
		nf   int
	}
	var rows []row
	for id := tscout.OUID(0); id < 200; id++ {
		if def, ok := srv.TS.OU(id); ok {
			rows = append(rows, row{id, def.Name, def.Subsystem, len(def.Features)})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	fmt.Printf("%4s %-18s %-18s %s\n", "id", "operating unit", "subsystem", "features")
	for _, r := range rows {
		def, _ := srv.TS.OU(r.id)
		fmt.Printf("%4d %-18s %-18s %v\n", r.id, r.name, r.sub.String(), def.Features)
	}
}

// stats drives a short fully-sampled YCSB burst through the instrumented
// server and prints the Processor's self-observed pipeline telemetry: the
// per-subsystem drain-shard counters an operator would check to tell a
// healthy collector from a saturated one.
func stats(srv *dbms.Server) error {
	gen := &workload.YCSB{Records: 2000}
	if err := gen.Setup(srv); err != nil {
		return err
	}
	srv.TS.Sampler().SetAllRates(100)
	res, err := workload.Run(srv, gen, workload.Config{
		Terminals: 8, Transactions: 3000, Seed: 1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("burst: %d txns, %.0f txns/s, %d training points\n\n",
		res.Completed, res.ThroughputTPS, res.TrainingPoints)
	fmt.Print(formatProcessorStats(res.Processor))
	return nil
}

func disasm(srv *dbms.Server, subName string) error {
	var sub tscout.SubsystemID
	found := false
	for _, s := range tscout.AllSubsystems {
		if s.String() == subName {
			sub, found = s, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown subsystem %q", subName)
	}
	col := srv.TS.CollectorFor(sub)
	if col == nil {
		return fmt.Errorf("no Collector generated for %s", subName)
	}
	fmt.Printf("Collector for %s (resources: CPU=%v Disk=%v Network=%v)\n",
		subName, col.Resources.CPU, col.Resources.Disk, col.Resources.Network)
	for _, lp := range []*bpf.LoadedProgram{col.Begin, col.End, col.Features} {
		p := lp.Program()
		fmt.Printf("\n--- %s ---\n%s", p.Name, p.Disassemble())
	}
	return nil
}
