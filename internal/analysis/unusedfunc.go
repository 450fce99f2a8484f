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
	used := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			var self types.Object
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = pass.Info.Defs[fd.Name]
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := pass.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
						used[fn.Origin()] = true
					}
				}
				return true
			})
		}
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.IsExported() || fd.Name.Name == "init" ||
				fd.Name.Name == "_" || (fd.Name.Name == "main" && pass.Pkg.Name() == "main") {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil && !used[obj] {
				pass.Reportf(fd.Name.Pos(), "%s is referenced by no non-test file of its package: "+
					"delete it, or move it into the test file that uses it", fd.Name.Name)
			}
		}
	}
}
