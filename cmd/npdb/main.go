// Command npdb runs the NoisePage-like DBMS substrate as an interactive
// SQL shell on the simulated hardware. Statements execute through the full
// stack (wire protocol, parser, planner, MVCC, group-commit WAL), and each
// result reports the virtual time the statement cost.
//
// Usage:
//
//	npdb [-profile large|small] [-instrument] [-rate N]
//
// With -instrument, TScout collects training data for every statement; the
// special command \points prints the collected training points.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"tscout/internal/archive"
	"tscout/internal/dbms"
	"tscout/internal/sim"
	"tscout/internal/tscout"
	"tscout/internal/wal"
)

func main() {
	profileName := flag.String("profile", "large", "hardware profile: large or small")
	instrument := flag.Bool("instrument", false, "deploy TScout (Kernel-Continuous)")
	rate := flag.Int("rate", 100, "sampling rate percent when instrumented")
	flag.Parse()

	profile := sim.LargeHW
	if *profileName == "small" {
		profile = sim.SmallHW
	}
	// The training archive: the Processor's sink, read back by \points.
	var arch bytes.Buffer
	sink := archive.NewWriter(&arch)
	srv, err := dbms.NewServer(dbms.Config{
		Profile:    profile,
		Seed:       1,
		Instrument: *instrument,
		Sink:       sink,
		WAL:        wal.Config{Synchronous: true},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "npdb: %v\n", err)
		os.Exit(1)
	}
	if srv.TS != nil {
		srv.TS.Sampler().SetAllRates(*rate)
	}
	se := srv.NewSession()

	fmt.Printf("npdb — simulated %s (%d cores, %.1f GHz). End statements with Enter; \\q quits.\n",
		profile.Name, profile.Cores, profile.ClockGHz)
	fmt.Println("Try: CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(32)); INSERT INTO t VALUES (1, 'x'); SELECT * FROM t")
	fmt.Println(`Meta: \q quit, \points show collected training points, \tables list tables.`)

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("npdb> ")
		if !in.Scan() {
			break
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == `\q`:
			return
		case line == `\tables`:
			for _, n := range srv.Catalog.TableNames() {
				fmt.Println(" ", n)
			}
			continue
		case line == `\points`:
			if srv.TS == nil {
				fmt.Println("not instrumented (run with -instrument)")
				continue
			}
			srv.TS.Processor().Drain(tscout.DrainOptions{})
			pts, err := archivedPoints(sink, &arch)
			if err != nil {
				fmt.Printf("error: %v\n", err)
				continue
			}
			fmt.Printf("%d training points\n", len(pts))
			for i, p := range pts {
				if i >= 20 {
					fmt.Println("  ... (truncated)")
					break
				}
				fmt.Printf("  %-16s %-18s features=%v elapsed=%dns\n",
					p.OUName, p.Subsystem.String(), p.Features, p.Metrics.ElapsedNS)
			}
			continue
		}

		before := se.Task.Now()
		res, err := se.Execute(line)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			continue
		}
		elapsed := se.Task.Now() - before
		if len(res.Cols) == 0 {
			fmt.Printf("OK, %d row(s) affected  (%.1f us virtual)\n",
				res.Affected, float64(elapsed)/1000)
			continue
		}
		fmt.Println(strings.Join(res.Cols, "\t"))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Println(strings.Join(cells, "\t"))
		}
		fmt.Printf("(%d row(s), %.1f us virtual)\n", len(res.Rows), float64(elapsed)/1000)
	}
}

// archivedPoints seals what the sink has buffered and decodes the archive.
func archivedPoints(sink *archive.Writer, arch *bytes.Buffer) ([]tscout.TrainingPoint, error) {
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	r, err := archive.NewReader(arch.Bytes())
	if err != nil {
		return nil, err
	}
	return r.Points()
}
