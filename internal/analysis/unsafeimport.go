package analysis

import (
	"path"
	"path/filepath"
)

// unsafeHome is the one non-test file that may import unsafe, as a path
// suffix so the rule also holds under a fixture tree or a vendored copy.
const unsafeHome = "internal/storage/value.go"

// UnsafeImportAnalyzer keeps unsafe in one file: the 16-byte storage.Value
// cell, whose encoding (a tag pointer or a string's data, and one payload
// word) is the repo's only reason to step outside the type system. A second
// file reaching for unsafe is a design decision, not a drive-by.
var UnsafeImportAnalyzer = &Analyzer{
	Name: RuleUnsafeImport,
	Run:  runUnsafeImport,
}

func runUnsafeImport(pass *Pass) {
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if hasPathSuffix(path.Join(pass.RelPath, name), unsafeHome) {
			continue
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` {
				pass.Reportf(imp.Pos(), "unsafe is imported only by %s; keep the cell encoding behind storage.Value", unsafeHome)
			}
		}
	}
}
