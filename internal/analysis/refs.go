package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
)

// refIndex is the one reference walk of a run: which functions and methods
// the non-test files of the run's packages name, which struct fields they
// set and read, and which interfaces those packages can see. The loader
// checks each package once, so a declaration is one types.Object however
// many packages name it; each is keyed by its generic origin, so a use
// through an instantiation counts for the declaration.
type refIndex struct {
	// used holds every function or method some non-test file references
	// outside the function's own body.
	used map[*types.Func]bool
	// ifaces lists, by method name, every interface type the run's files
	// write (in a declaration or as a literal), every exported one of a
	// package they import (an unexported one there sees only that
	// package's own values), error, and errorsProtocol.
	ifaces map[string][]*types.Interface
	set    map[*types.Var]bool // every field some non-test file sets
	read   map[*types.Var]bool // every field some non-test file reads
}

// newRefIndex walks every declaration of pkgs once.
func newRefIndex(pkgs []*pkgInfo) *refIndex {
	ix := &refIndex{used: map[*types.Func]bool{}, set: map[*types.Var]bool{}, read: map[*types.Var]bool{}, ifaces: map[string][]*types.Interface{}}
	addIface := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			ix.ifaces[name] = append(ix.ifaces[name], iface)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, t := range errorsProtocol() {
		addIface(t)
	}
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, p := range pkg.Pkg.Imports() {
			if seen[p.Path()] {
				continue
			}
			seen[p.Path()] = true
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() && !tn.IsAlias() {
					addIface(tn.Type())
				}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				written := make(map[*ast.SelectorExpr]bool)
				ast.Inspect(d, func(n ast.Node) bool {
					ix.noteSets(pkg.Info, self, n)
					ix.noteReads(pkg.Info, written, n)
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := pkg.Info.Uses[n].(*types.Func); ok && fn.Origin() != self {
							ix.used[fn.Origin()] = true
						}
					case *ast.InterfaceType:
						if tv, ok := pkg.Info.Types[n]; ok {
							addIface(tv.Type)
						}
					}
					return true
				})
			}
		}
	}
	return ix
}

// errorsProtocol returns the interfaces errors.Is, errors.As and
// errors.Unwrap look for with a type assertion to an interface literal, so
// no package scope declares them.
func errorsProtocol() []types.Type {
	const src = `package p
type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	var out []types.Type
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type())
	}
	return out
}

// satisfiesInterface reports whether the method fn is part of some
// interface its receiver type implements (through a pointer, whose method
// set holds both receiver kinds): a call through that interface names the
// interface's method, never fn, so fn's missing references prove nothing.
func (ix *refIndex) satisfiesInterface(fn *types.Func) bool {
	named := recvNamed(fn)
	if named == nil {
		return false
	}
	ptr := types.NewPointer(named)
	for _, iface := range ix.ifaces[fn.Name()] {
		if types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}
