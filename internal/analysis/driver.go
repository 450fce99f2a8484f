package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"path"
	"sort"
)

// RunRoot runs every analyzer in suite over each package under root,
// applies //tsvet:ignore suppressions, and returns the surviving
// diagnostics sorted by file, line, and column. A nil suite means All().
func RunRoot(root string, suite []*Analyzer) ([]Diagnostic, error) {
	return runRoot(newLoader(), root, suite)
}

// runRoot is RunRoot through a loader the caller may have used before:
// whatever it has already imported is not type-checked again.
func runRoot(l *loader, root string, suite []*Analyzer) ([]Diagnostic, error) {
	if suite == nil {
		suite = All()
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	module, prefix := moduleContext(root)
	known := knownRules()
	var all []Diagnostic
	for _, rel := range dirs {
		// relPath is module-root-relative so path-scoped rules classify a
		// subtree invocation exactly like a repo-root one.
		relPath := rel
		if prefix != "" {
			if rel == "." {
				relPath = prefix
			} else {
				relPath = path.Join(prefix, rel)
			}
		}
		pkgPath := relPath
		if module != "" {
			if relPath == "." {
				pkgPath = module
			} else {
				pkgPath = path.Join(module, relPath)
			}
		}
		pkg, err := l.load(path.Join(root, rel), relPath, pkgPath)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		all = append(all, runPackage(l, pkg, suite, known)...)
	}
	sortDiagnostics(all)
	return all, nil
}

// RunDir analyzes a single package directory (used by the fixture tests):
// relPath doubles as the package path, so fixture trees can opt into
// path-scoped analyzers by embedding the segment they target.
func RunDir(dir, relPath string, suite []*Analyzer) ([]Diagnostic, error) {
	return runDir(newLoader(), dir, relPath, suite)
}

func runDir(l *loader, dir, relPath string, suite []*Analyzer) ([]Diagnostic, error) {
	if suite == nil {
		suite = All()
	}
	pkg, err := l.load(dir, relPath, relPath)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("tsvet: no non-test Go files in %s", dir)
	}
	diags := runPackage(l, pkg, suite, knownRules())
	sortDiagnostics(diags)
	return diags, nil
}

// runPackage runs the suite over one loaded package and applies the
// package's suppression directives.
func runPackage(l *loader, pkg *pkgInfo, suite []*Analyzer, known map[string]bool) []Diagnostic {
	var raw []Diagnostic
	report := func(d Diagnostic) { raw = append(raw, d) }
	for _, a := range suite {
		pass := &Pass{
			Analyzer: a,
			Fset:     l.fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			PkgPath:  pkg.PkgPath,
			RelPath:  pkg.RelPath,
			report:   report,
		}
		a.Run(pass)
	}
	var framework []Diagnostic
	directives := collectIgnores(l.fset, pkg.Files, known, func(d Diagnostic) {
		framework = append(framework, d)
	})
	return append(applyIgnores(raw, directives), framework...)
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Rule < diags[j].Rule
	})
}

// WriteText renders diagnostics one per line plus a summary, the format
// `make lint` greps and editors jump through.
func WriteText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(w, "tsvet: %d finding(s)\n", len(diags))
	}
}

// WriteJSON renders diagnostics as a JSON array (one object per finding),
// for tooling that post-processes the gate.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}

// Main is the tsvet CLI entry point, split from the command for testing:
// `tsvet [-json] [dir ...]` analyzes each root (default ".") and exits 1
// on any unsuppressed finding, 2 on driver failure.
func Main(out io.Writer, args []string) int {
	fs := flag.NewFlagSet("tsvet", flag.ContinueOnError)
	fs.SetOutput(out)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	roots := fs.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var all []Diagnostic
	for _, root := range roots {
		diags, err := RunRoot(root, nil)
		if err != nil {
			fmt.Fprintf(out, "tsvet: %v\n", err)
			return 2
		}
		all = append(all, diags...)
	}
	if *jsonOut {
		if err := WriteJSON(out, all); err != nil {
			fmt.Fprintf(out, "tsvet: %v\n", err)
			return 2
		}
	} else {
		WriteText(out, all)
	}
	if len(all) > 0 {
		return 1
	}
	return 0
}
