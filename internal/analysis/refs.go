package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
)

// refIndex is the one reference walk of a run, shared by unused-func and
// unused-export: which functions and methods the non-test files of the
// run's packages name, and which interfaces those packages can see.
//
// A package the run type-checks and the copy of it that the source
// importer hands its importers are different types.Objects, so functions
// are keyed by funcKey, which both copies spell the same way.
type refIndex struct {
	// used holds the funcKey of every function or method some non-test
	// file references outside the function's own body.
	used map[string]bool
	// ifaces lists, by method name, every interface type the run's files
	// write (in a declaration or as a literal), every exported one of a
	// package they import (an unexported one there sees only that
	// package's own values), error, and errorsProtocol.
	ifaces map[string][]*types.Interface
}

// funcKey names fn the same way in every copy of its package: its
// package-qualified full name, taken from the generic origin so that a call
// through an instantiation counts for the declaration.
func funcKey(fn *types.Func) string {
	return fn.Origin().FullName()
}

// newRefIndex walks every declaration of pkgs once.
func newRefIndex(pkgs []*pkgInfo) *refIndex {
	ix := &refIndex{used: make(map[string]bool), ifaces: make(map[string][]*types.Interface)}
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
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := pkg.Info.Uses[n].(*types.Func); ok && fn.Origin() != self {
							ix.used[funcKey(fn)] = true
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
		if implements(ptr, iface) {
			return true
		}
	}
	return false
}

// implements is types.Implements across package copies: method by method,
// by name and by the package-qualified spelling of each parameter and
// result type (types.Identical would compare the copies' objects).
func implements(t types.Type, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok || signatureKey(fn.Type().(*types.Signature)) != signatureKey(m.Type().(*types.Signature)) {
			return false
		}
	}
	return true
}

// signatureKey spells a signature's parameter and result types without
// their names.
func signatureKey(sig *types.Signature) string {
	var b strings.Builder
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			b.WriteString(types.TypeString(t.At(i).Type(), nil))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	tuple(sig.Results())
	return b.String()
}
