package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// summary is one end-to-end metric over a workload's repeats.
type summary struct {
	Unit   string    `json:"unit"`
	Clock  string    `json:"clock"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type workloadLedger struct {
	ArchiveDigest string                 `json:"archive_digest"`
	OpsAttempted  int64                  `json:"ops_attempted"`
	OpsFailed     int64                  `json:"ops_failed"`
	EndToEnd      map[string]summary     `json:"end_to_end"`
	PerLayer      map[string]metricValue `json:"per_layer,omitempty"`
}

// ledger is what `go run ./benchmark` writes and `compare` reads.
type ledger struct {
	Seed       int64                     `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	Repeats    int                       `json:"repeats"`
	NProc      int                       `json:"nproc"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	Go         string                    `json:"go"`
	Workloads  map[string]workloadLedger `json:"workloads"`
}

// quartiles follows Python's statistics.quantiles(values, n=4), the rule
// the benchmark's acceptance is judged by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// runChild runs one workload in a fresh process of this same binary and
// parses the two JSON lines it ends with.
func runChild(workloadName string, seed int64, seconds float64, trace bool, outDir string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", workloadName, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg, "-out", outDir)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output() // waits for the child to end
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: no result (%v)", workloadName, runErr)
	}
	rep := &report{}
	if err := json.Unmarshal(lines[len(lines)-2], &rep.Info); err != nil {
		return nil, fmt.Errorf("%s: info line: %w", workloadName, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rep.Result); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workloadName, err)
	}
	if runErr != nil || !rep.Result.Correct {
		return rep, fmt.Errorf("%s: correctness gate failed: %v", workloadName, rep.Info.GateFailures)
	}
	return rep, nil
}

// ledgerMain runs every workload `repeats` times, each in a fresh process,
// interleaved round-robin so drift on the box spreads over all of them;
// then once more traced if asked. Virtual metrics and the archive digest
// must be bit-equal across a workload's repeats.
func ledgerMain(seed int64, seconds float64, repeats int, trace bool, outDir string) int {
	if repeats < 3 {
		fmt.Fprintln(os.Stderr, "benchmark: the ledger needs at least 3 repeats")
		return 2
	}
	runs := map[string][]*report{}
	for rep := 0; rep < repeats; rep++ {
		for _, sp := range specs {
			r, err := runChild(sp.name, seed, seconds, false, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			fmt.Printf("repeat %d/%d %-20s collect %.2fs learn %.2fs digest %s\n", rep+1, repeats, sp.name,
				r.Info.PhaseWallS["collect"], r.Info.PhaseWallS["learn"], r.Info.ArchiveDigest)
			runs[sp.name] = append(runs[sp.name], r)
		}
	}

	led := ledger{Seed: seed, Seconds: seconds, Repeats: repeats, Workloads: map[string]workloadLedger{}}
	status := 0
	for _, sp := range specs {
		first := runs[sp.name][0]
		led.NProc, led.GOMAXPROCS, led.Go = first.Info.NProc, first.Info.GOMAXPROCS, first.Info.Go
		wl := workloadLedger{
			ArchiveDigest: first.Info.ArchiveDigest,
			OpsAttempted:  first.Result.Attempted, OpsFailed: first.Result.Failed,
			EndToEnd: map[string]summary{},
		}
		for _, r := range runs[sp.name][1:] {
			if r.Info.ArchiveDigest != wl.ArchiveDigest {
				fmt.Fprintf(os.Stderr, "benchmark: %s: archive digest differs across repeats: %s, %s\n",
					sp.name, wl.ArchiveDigest, r.Info.ArchiveDigest)
				status = 1
			}
		}
		for _, m := range endToEnd {
			s := summary{Unit: m.unit, Clock: "host"}
			for _, r := range runs[sp.name] {
				s.Values = append(s.Values, r.Result.Metrics[m.name].Value)
			}
			if m.virtual {
				s.Clock = "virtual"
				for _, v := range s.Values[1:] {
					if v != s.Values[0] {
						fmt.Fprintf(os.Stderr, "benchmark: %s: virtual metric %s differs across repeats: %v\n",
							sp.name, m.name, s.Values)
						status = 1
						break
					}
				}
			}
			s.N = len(s.Values)
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			wl.EndToEnd[m.name] = s
		}
		if trace {
			r, err := runChild(sp.name, seed, seconds, true, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			wl.PerLayer = r.Result.Metrics
		}
		led.Workloads[sp.name] = wl
	}

	led.print()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "ledger.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("wrote", filepath.Join(outDir, "ledger.json"))
	return status
}

// print lists every metric by name with its unit, per workload.
func (l *ledger) print() {
	for _, sp := range specs {
		wl := l.Workloads[sp.name]
		fmt.Printf("\n%s (seed %d, n=%d, digest %s, ops %d attempted %d failed)\n",
			sp.name, l.Seed, l.Repeats, wl.ArchiveDigest, wl.OpsAttempted, wl.OpsFailed)
		for _, m := range endToEnd {
			s := wl.EndToEnd[m.name]
			fmt.Printf("  %-38s %16.4f %-6s %-7s q1 %.4f q3 %.4f n %d\n", m.name, s.Median, s.Unit, s.Clock, s.Q1, s.Q3, s.N)
		}
		for _, m := range perLayer {
			if v, ok := wl.PerLayer[m.name]; ok {
				fmt.Printf("  %-38s %16.4f %s\n", m.name, v.Value, v.Unit)
			}
		}
	}
}
