// Command benchmark is the repository's performance ledger: four full-loop
// workloads (build, collection-off pass, instrumented collect pass into an
// archive, learn from the reopened archive), twelve end-to-end metrics on
// two clocks, and a per-layer trace. README.md in this directory defines
// every workload and metric; BENCHMARK.json at the repository root fixes the
// bounds.
//
//	go run ./benchmark --workload tatp_full --seed 21 --seconds 20 --trace 0
//	go run ./benchmark                       # every workload, repeated, into a ledger
//	go run ./benchmark compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process; empty runs the whole ledger")
		seed         = flag.Int64("seed", 21, "the only source of randomness")
		seconds      = flag.Float64("seconds", nominalSeconds, "run size: budgets are frozen at 20 and scale linearly")
		trace        = flag.Int("trace", 0, "1 adds the traced loop and the isolated drives and reports per-layer metrics")
		repeats      = flag.Int("repeats", 5, "ledger: fresh-process runs per workload (at least 3)")
		out          = flag.String("out", "benchmark/out", "directory for ledger.json and trace-<workload>.json")
		phase        = flag.String("phase", "collect", "phase the profiles cover: off, collect or learn")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of -phase of -workload here")
		memProfile   = flag.String("memprofile", "", "write an allocation profile at the end of -phase of -workload here")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name] [--seed n] [--seconds n] [--trace 0|1]")
		os.Exit(2)
	}
	// One driver goroutine and at most two drain threads: never more
	// running threads than the 2-CPU box this ledger is sized for.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}

	if *workloadName == "" {
		if *cpuProfile != "" || *memProfile != "" {
			fmt.Fprintln(os.Stderr, "benchmark: profiles need one -workload")
			os.Exit(2)
		}
		os.Exit(ledgerMain(*seed, *seconds, *repeats, *trace == 1, *out))
	}

	sp, ok := specByName(*workloadName)
	if !ok {
		var names []string
		for _, s := range specs {
			names = append(names, s.name)
		}
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workloadName, strings.Join(names, ", "))
		os.Exit(2)
	}
	prof, err := newProfiler(*phase, *cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	rep, err := runOnce(sp, *seed, *seconds, *trace == 1, prof, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

// metricValue is one measured value as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// info is the line before it: what the ledger keeps beside the metrics.
type info struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Seconds       float64            `json:"seconds"`
	Trace         bool               `json:"trace"`
	ArchiveDigest string             `json:"archive_digest"`
	PhaseWallS    map[string]float64 `json:"phase_wall_s"`
	PhaseSpeed    map[string]float64 `json:"phase_speed"`
	GateFailures  []string           `json:"gate_failures"`
	NProc         int                `json:"nproc"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	Go            string             `json:"go"`
}

// report is one run: the result line for the requested trace mode, and the
// end-to-end values whichever mode was asked for.
type report struct {
	Info     info
	Result   result
	EndToEnd map[string]float64
	defs     []metricDef
}

// runOnce runs the workload in this process: the untraced full loop and its
// correctness gate, then (trace) the traced loop and the isolated drives.
func runOnce(sp spec, seed int64, seconds float64, trace bool, prof *profiler, outDir string) (*report, error) {
	scale := seconds / nominalSeconds
	meter := newSpeedometer(nil)
	res, err := runLoop(sp, seed, scale, meter, nil, prof)
	if err != nil {
		return nil, err
	}
	failures := gate(sp, res)

	values := endToEndValues(res)
	rep := &report{defs: endToEnd, EndToEnd: values}
	if trace {
		tr := newTracer()
		traced, err := runLoop(sp, seed, scale, newSpeedometer(tr), tr, nil)
		if err != nil {
			return nil, fmt.Errorf("traced loop: %w", err)
		}
		if traced.archiveDigest != res.archiveDigest {
			failures = append(failures, fmt.Sprintf("the traced loop wrote archive %016x, the untraced one %016x",
				traced.archiveDigest, res.archiveDigest))
		}
		rep.defs = perLayer
		values = counterValues(res)
		for name, v := range spanValues(tr, traced, res.onCost.wallS) {
			values[name] = v
		}
		driven, err := runDrives(sp, seed, scale, res.archiveData, res.hw)
		if err != nil {
			return nil, fmt.Errorf("isolated drives: %w", err)
		}
		for name, v := range driven {
			values[name] = v
		}
		if err := tr.write(outDir, sp.name, seed); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}

	rep.Result = result{
		Correct:   len(failures) == 0,
		Attempted: int64(res.off.Completed + res.off.Aborted + res.on.Completed + res.on.Aborted),
		Failed:    int64(res.off.Aborted + res.on.Aborted),
		Metrics:   map[string]metricValue{},
	}
	for _, m := range rep.defs {
		rep.Result.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	rep.Info = info{
		Workload: sp.name, Seed: seed, Seconds: seconds, Trace: trace,
		ArchiveDigest: fmt.Sprintf("%016x", res.archiveDigest),
		PhaseWallS: map[string]float64{
			"off": res.offCost.wallS, "collect": res.onCost.wallS, "learn": res.learnCost.wallS,
		},
		PhaseSpeed:   map[string]float64{"off": res.offCost.speed, "collect": res.onCost.speed},
		GateFailures: failures,
		NProc:        runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
	}
	return rep, nil
}

// print writes every metric by name with its unit, then the info line, then
// the result line the driver reads.
func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v (nproc %d, GOMAXPROCS %d, %s)\n",
		r.Info.Workload, r.Info.Seed, r.Info.Seconds, r.Info.Trace, r.Info.NProc, r.Info.GOMAXPROCS, r.Info.Go)
	for _, m := range r.defs {
		clock := "host"
		if m.virtual {
			clock = "virtual"
		}
		fmt.Fprintf(w, "%-38s %18.6f %-6s %s\n", m.name, r.Result.Metrics[m.name].Value, m.unit, clock)
	}
	fmt.Fprintf(w, "archive_digest %s\n", r.Info.ArchiveDigest)
	fmt.Fprintf(w, "ops_attempted %d ops_failed %d\n", r.Result.Attempted, r.Result.Failed)
	for _, f := range r.Info.GateFailures {
		fmt.Fprintf(w, "GATE FAILED: %s\n", f)
	}
	enc := json.NewEncoder(w)
	_ = enc.Encode(r.Info)   // a failed write to stdout has nowhere to be reported
	_ = enc.Encode(r.Result) // likewise
}
