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
	"io"
	"os"
	"strings"

	"tscout/internal/archive"
	"tscout/internal/dbms"
	"tscout/internal/sim"
	"tscout/internal/tscout"
	"tscout/internal/wal"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the shell: it reads statements from in until EOF or \q and
// returns the exit status, 2 for a usage error.
func run(args []string, in io.Reader, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("npdb", flag.ExitOnError)
	fs.SetOutput(errOut)
	profileName := fs.String("profile", "large", "hardware profile: large or small")
	instrument := fs.Bool("instrument", false, "deploy TScout (Kernel-Continuous)")
	rate := fs.Int("rate", 100, "sampling rate percent (0-100) when instrumented")
	fs.Parse(args) // a malformed flag exits 2, -h 0
	if *rate < 0 || *rate > 100 {
		fmt.Fprintf(errOut, "npdb: -rate %d is outside 0-100\n", *rate)
		fs.Usage()
		return 2
	}
	profile, ok := map[string]sim.HardwareProfile{"large": sim.LargeHW, "small": sim.SmallHW}[*profileName]
	if !ok {
		fmt.Fprintf(errOut, "npdb: -profile %q is not large or small\n", *profileName)
		fs.Usage()
		return 2
	}
	// The training archive: the Processor's sink, read back by \points.
	var arch bytes.Buffer
	sink := archive.NewWriter(&arch)
	srv, err := dbms.NewServer(dbms.Config{
		Profile:    profile,
		Seed:       1,
		Instrument: *instrument,
		Sink:       sink,
		WAL:        wal.Config{GroupSize: 1},
	})
	if err != nil {
		fmt.Fprintf(errOut, "npdb: %v\n", err)
		return 1
	}
	if srv.TS != nil {
		srv.TS.Sampler().SetAllRates(*rate)
	}
	se := srv.NewSession()

	fmt.Fprintf(out, "npdb — simulated %s (%d cores, %.1f GHz). End statements with Enter; \\q quits.\n",
		profile.Name, profile.Cores, profile.ClockGHz)
	fmt.Fprintln(out, "Try: CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(32)); INSERT INTO t VALUES (1, 'x'); SELECT * FROM t")
	fmt.Fprintln(out, `Meta: \q quit, \points show collected training points, \tables list tables.`)

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, "npdb> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q`:
			return 0
		case line == `\tables`:
			for _, n := range srv.Catalog.TableNames() {
				fmt.Fprintln(out, " ", n)
			}
			continue
		case line == `\points`:
			if srv.TS == nil {
				fmt.Fprintln(out, "not instrumented (run with -instrument)")
				continue
			}
			srv.TS.Processor().Drain(tscout.DrainOptions{})
			pts, err := archivedPoints(sink, &arch)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				continue
			}
			fmt.Fprintf(out, "%d training points\n", len(pts))
			for i, p := range pts {
				if i >= 20 {
					fmt.Fprintln(out, "  ... (truncated)")
					break
				}
				fmt.Fprintf(out, "  %-16s %-18s features=%v elapsed=%dns\n",
					p.OUName, p.Subsystem.String(), p.Features, p.Metrics.ElapsedNS)
			}
			continue
		}

		before := se.Task.Now()
		res, err := se.Execute(line)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			continue
		}
		elapsed := se.Task.Now() - before
		if len(res.Cols) == 0 {
			fmt.Fprintf(out, "OK, %d row(s) affected  (%.1f us virtual)\n",
				res.Affected, float64(elapsed)/1000)
			continue
		}
		fmt.Fprintln(out, strings.Join(res.Cols, "\t"))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Fprintln(out, strings.Join(cells, "\t"))
		}
		fmt.Fprintf(out, "(%d row(s), %.1f us virtual)\n", len(res.Rows), float64(elapsed)/1000)
	}
	return 0
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
