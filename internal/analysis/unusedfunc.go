package analysis

import (
	"go/ast"
	"go/types"
)

// UnusedFuncAnalyzer flags a package-level unexported function that no
// non-test file of its package references. Such a function is dead in the
// build: it either serves only tests (and belongs in their _test.go file)
// or nothing at all. go vet does not check this. A function's references
// to itself do not count.
var UnusedFuncAnalyzer = &Analyzer{
	Name: RuleUnusedFunc,
	Doc:  "every package-level unexported function is referenced by a non-test file of its package",
	Run:  runUnusedFunc,
}

func runUnusedFunc(pass *Pass) {
	for _, fd := range funcDecls(pass) {
		if fd.Recv != nil || fd.Name.IsExported() || fd.Name.Name == "init" ||
			fd.Name.Name == "_" || (fd.Name.Name == "main" && pass.Pkg.Name() == "main") {
			continue
		}
		if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok && !pass.refs.used[funcKey(fn)] {
			pass.Reportf(fd.Name.Pos(), "%s is referenced by no non-test file of its package: "+
				"delete it, or move it into the test file that uses it", fd.Name.Name)
		}
	}
}

// UnusedExportAnalyzer flags an exported package-level function or method
// that no non-test file under the analysis root references. Like an
// unused-func finding, it is dead in the build; being exported only means
// the tests that keep it are in other packages. A method that satisfies
// an interface is exempt, since calls through the interface never name it.
// The driver runs the rule only when the root is a module root: below
// that, the packages outside the root may be the callers.
var UnusedExportAnalyzer = &Analyzer{
	Name: RuleUnusedExport,
	Doc:  "every exported function or method is referenced by a non-test file under the root, or satisfies an interface",
	Run:  runUnusedExport,
}

func runUnusedExport(pass *Pass) {
	for _, fd := range funcDecls(pass) {
		if !fd.Name.IsExported() {
			continue
		}
		fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
		if !ok || pass.refs.used[funcKey(fn)] || (fd.Recv != nil && pass.refs.satisfiesInterface(fn)) {
			continue
		}
		pass.Reportf(fd.Name.Pos(), "%s is referenced by no non-test file: delete it, or move it "+
			"into the test files that use it", fn.Name())
	}
}

// funcDecls lists the pass's function and method declarations.
func funcDecls(pass *Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				out = append(out, fd)
			}
		}
	}
	return out
}
