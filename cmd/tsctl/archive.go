package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"tscout/internal/archive"
)

// archiveCmd implements `tsctl archive <inspect|export|verify> [flags] <file>`:
// the operator surface over a columnar training archive. It needs no server
// — the archive file is self-describing. Exit codes follow tsvet's
// convention: 0 ok, 1 failure/corruption, 2 usage.
func archiveCmd(out, errOut io.Writer, args []string) int {
	if len(args) < 1 {
		fmt.Fprintln(errOut, "usage: tsctl archive inspect [-json] <file> | export -csv <file> | verify [-json] <file>")
		return 2
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "inspect", "export", "verify":
	default:
		fmt.Fprintf(errOut, "tsctl archive: unknown verb %q\n", verb)
		return 2
	}

	var jsonOut, csvOut bool
	var path string
	for _, a := range rest {
		switch a {
		case "-json", "--json":
			jsonOut = true
		case "-csv", "--csv":
			csvOut = true
		default:
			if path != "" {
				fmt.Fprintf(errOut, "tsctl archive: unexpected argument %q\n", a)
				return 2
			}
			path = a
		}
	}
	if path == "" {
		fmt.Fprintln(errOut, "tsctl archive: no archive file given")
		return 2
	}

	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(errOut, "tsctl archive: %v\n", err)
		return 1
	}
	r, err := archive.NewReader(data)
	if err != nil {
		// A structurally broken archive is the finding `verify` exists to
		// report; for the other verbs it is still a hard failure.
		if verb == "verify" {
			return reportVerify(out, errOut, path, err, jsonOut)
		}
		fmt.Fprintf(errOut, "tsctl archive: %v\n", err)
		return 1
	}

	switch verb {
	case "inspect":
		if csvOut {
			fmt.Fprintln(errOut, "tsctl archive: -csv applies to export")
			return 2
		}
		return inspectArchive(out, errOut, r, jsonOut)
	case "export":
		if jsonOut {
			fmt.Fprintln(errOut, "tsctl archive: -json applies to inspect and verify")
			return 2
		}
		if !csvOut {
			fmt.Fprintln(errOut, "usage: tsctl archive export -csv <file> (CSV is the only export format)")
			return 2
		}
		if _, err := archive.ExportCSV(r, out); err != nil {
			fmt.Fprintf(errOut, "tsctl archive: %v\n", err)
			return 1
		}
		return 0
	case "verify":
		if csvOut {
			fmt.Fprintln(errOut, "tsctl archive: -csv applies to export")
			return 2
		}
		return reportVerify(out, errOut, path, r.Verify(), jsonOut)
	default:
		panic("unreachable: verb validated above")
	}
}

func inspectArchive(out, errOut io.Writer, r *archive.Reader, jsonOut bool) int {
	st := r.Stats()
	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			fmt.Fprintf(errOut, "tsctl archive: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(out, "segments: %d\nblocks:   %d\nrows:     %d\nbytes:    %d", st.Segments, st.Blocks, st.Rows, st.Bytes)
	if st.Rows > 0 {
		fmt.Fprintf(out, " (%.1f bytes/row)", float64(st.Bytes)/float64(st.Rows))
	}
	fmt.Fprintln(out)
	for _, section := range []struct {
		title string
		rows  map[string]int64
	}{
		{"rows by operating unit", st.RowsByOU},
		{"rows by subsystem", st.RowsBySub},
	} {
		fmt.Fprintf(out, "\n%s:\n", section.title)
		names := make([]string, 0, len(section.rows))
		for n := range section.rows {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "  %-20s %d\n", n, section.rows[n])
		}
	}
	return 0
}

// reportVerify renders a verification outcome (err == nil means clean) and
// maps it to the exit code: 0 clean, 1 corrupt.
func reportVerify(out, errOut io.Writer, path string, err error, jsonOut bool) int {
	if jsonOut {
		res := struct {
			File  string `json:"file"`
			OK    bool   `json:"ok"`
			Error string `json:"error,omitempty"`
		}{File: path, OK: err == nil}
		if err != nil {
			res.Error = err.Error()
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if eerr := enc.Encode(res); eerr != nil {
			fmt.Fprintf(errOut, "tsctl archive: %v\n", eerr)
			return 1
		}
	} else if err == nil {
		fmt.Fprintf(out, "%s: ok\n", path)
	} else {
		fmt.Fprintf(out, "%s: CORRUPT: %v\n", path, err)
	}
	if err != nil {
		return 1
	}
	return 0
}
