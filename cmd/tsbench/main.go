// Command tsbench regenerates the paper's tables and figures against the
// simulated substrate and prints the rows/series each figure plots.
//
// Usage:
//
//	tsbench [-full] <figure>|all
//
// The figures are experiment.Figures. At the default quick scale, `tsbench
// all` prints EXPERIMENTS.md's blocks byte for byte; -full sweeps more
// points.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tscout/internal/experiment"
)

func main() {
	full := flag.Bool("full", false, "sweep more points, more slowly")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tsbench [-full] <figure>|all\nfigures: %s\n",
			strings.Join(experiment.Figures, " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	sc := experiment.Quick
	if *full {
		sc = experiment.Full
	}
	if err := experiment.Render(os.Stdout, strings.ToLower(flag.Arg(0)), sc); err != nil {
		fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
		os.Exit(1)
	}
}
