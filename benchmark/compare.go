package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// boundedMetric is one end_to_end entry of BENCHMARK.json.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge compares one metric of one workload between a base ledger A and a
// changed ledger B. worse is the share of A's median by which B's median is
// worse (negative when it is better); spread is the wider of the two sides'
// quartile distances as a share of their medians. Within the bound nothing
// changed. Beyond it the verdict stands only if the run-to-run spread is
// inside the bound too, or every run of one side beats every run of the
// other; otherwise the pair is unresolved.
func judge(a, b summary, better string, bound float64) (v verdict, worse, spread float64) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worse = sign * (b.Median - a.Median) / a.Median
	spread = (a.Q3 - a.Q1) / a.Median
	if s := (b.Q3 - b.Q1) / b.Median; s > spread {
		spread = s
	}
	allWorse, allBetter := true, true
	for _, x := range a.Values {
		for _, y := range b.Values {
			d := sign * (y - x) // positive: this run of B is worse than this run of A
			if d <= 0 {
				allWorse = false
			}
			if d >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case worse > bound && (spread <= bound || allWorse):
		return regressed, worse, spread
	case worse < -bound && (spread <= bound || allBetter):
		return improved, worse, spread
	case spread > bound:
		return unresolved, worse, spread
	}
	return unchanged, worse, spread
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareMain is `benchmark compare A.json B.json`: it exits 1 if any
// (workload, metric) pair regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	bounds := fs.String("bounds", "BENCHMARK.json", "the file that fixes each metric's direction and bound")
	_ = fs.Parse(args) // ExitOnError: Parse does not return an error
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-bounds BENCHMARK.json] A.json B.json")
		return 2
	}
	var bf benchmarkFile
	var a, b ledger
	for _, f := range []struct {
		path string
		into any
	}{{*bounds, &bf}, {fs.Arg(0), &a}, {fs.Arg(1), &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
	}
	if compare(os.Stdout, bf, a, b) > 0 {
		return 1
	}
	return 0
}

// compare prints one verdict per (workload, metric), every ratio with its
// base, and a line per workload whose archive digest differs; it returns
// the number of regressions.
func compare(w io.Writer, bf benchmarkFile, a, b ledger) (regressions int) {
	for _, sp := range specs {
		wa, okA := a.Workloads[sp.name]
		wb, okB := b.Workloads[sp.name]
		if !okA || !okB {
			fmt.Fprintf(w, "%s: missing from one ledger\n", sp.name)
			continue
		}
		fmt.Fprintf(w, "%s\n", sp.name)
		if wa.ArchiveDigest != wb.ArchiveDigest {
			fmt.Fprintf(w, "  archive_digest differs: %s -> %s (the collected data changed)\n",
				wa.ArchiveDigest, wb.ArchiveDigest)
		}
		for _, m := range bf.EndToEnd {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "  %-26s missing from one ledger\n", m.Name)
				continue
			}
			v, worse, spread := judge(sa, sb, m.Better, m.Bound)
			if v == regressed {
				regressions++
			}
			fmt.Fprintf(w, "  %-26s %-10s %.6g -> %.6g %s: %+.2f%% of %.6g in the worse direction (%s is better; bound %.1f%%, spread %.2f%%, n %d/%d)\n",
				m.Name, v, sa.Median, sb.Median, m.Unit, worse*100, sa.Median, m.Better, m.Bound*100, spread*100, sa.N, sb.N)
		}
	}
	return regressions
}
