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
// whatever it has already imported is not type-checked again. Every
// package is loaded before any analyzer runs, so one reference walk
// (refIndex) serves the whole root.
func runRoot(l *loader, root string, suite []*Analyzer) ([]Diagnostic, error) {
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	module, prefix := moduleContext(root)
	var pkgs []*pkgInfo
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
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	// Below a module root, packages outside the root may call its exports.
	return runPackages(l, pkgs, suite, prefix == ""), nil
}

// runPackages runs the suite over loaded packages that share one
// reference index. closed says no file outside pkgs can reference their
// exports; unless it holds, unused-export does not run.
func runPackages(l *loader, pkgs []*pkgInfo, suite []*Analyzer, closed bool) []Diagnostic {
	if suite == nil {
		suite = All()
	}
	if !closed {
		var open []*Analyzer
		for _, a := range suite {
			if a.Name != RuleUnusedExport {
				open = append(open, a)
			}
		}
		suite = open
	}
	refs := newRefIndex(pkgs)
	known := knownRules()
	ran := make(map[string]bool)
	for _, a := range suite {
		ran[a.Name] = true
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		all = append(all, runPackage(l, pkg, suite, refs, known, ran)...)
	}
	sortDiagnostics(all)
	return all
}

// runPackage runs the suite over one loaded package and applies the
// package's suppression directives.
func runPackage(l *loader, pkg *pkgInfo, suite []*Analyzer, refs *refIndex, known, ran map[string]bool) []Diagnostic {
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
			refs:     refs,
			report:   report,
		}
		a.Run(pass)
	}
	var framework []Diagnostic
	directives := collectIgnores(l.fset, pkg.Files, known, func(d Diagnostic) {
		framework = append(framework, d)
	})
	return append(applyIgnores(raw, directives, ran), framework...)
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
