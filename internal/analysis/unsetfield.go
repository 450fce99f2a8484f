package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UnsetFieldAnalyzer flags an exported field of an exported struct type
// that no non-test file under a module root sets (see noteSets).
var UnsetFieldAnalyzer = &Analyzer{
	Name: RuleUnsetField,
	Run:  runUnsetField,
}

func runUnsetField(pass *Pass) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() {
			continue
		}
		st, _ := tn.Type().Underlying().(*types.Struct)
		for i := 0; st != nil && i < st.NumFields(); i++ {
			v := st.Field(i)
			if v.Exported() && !v.Embedded() && v.Pkg() == pass.Pkg && !pass.refs.set[v] {
				pass.Reportf(v.Pos(), "%s.%s is set by no non-test file: delete it with the path it selects", name, v.Name())
			}
		}
	}
}

// noteSets records the fields n (in fn's declaration, if any) sets: an
// element of a struct literal, or on the chain of an assignment or inc/dec
// target, an & operand or the receiver of a pointer method.
func (ix *refIndex) noteSets(info *types.Info, fn types.Object, n ast.Node) {
	switch n := n.(type) {
	case *ast.CompositeLit:
		t := info.Types[n].Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem() // an elided &T{...}
		}
		st, ok := t.Underlying().(*types.Struct)
		for i := 0; ok && i < len(n.Elts); i++ {
			v := st.Field(i)
			if kv, keyed := n.Elts[i].(*ast.KeyValueExpr); keyed {
				v = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
			}
			ix.mark(fn, v, nil)
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			ix.target(info, fn, lhs)
		}
	case *ast.IncDecStmt:
		ix.target(info, fn, n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			ix.target(info, fn, n.X)
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal && ptrRecv(sel.Obj()) {
			ix.target(info, fn, n.X)
		}
	}
}

// target marks each field on e's selector, index and dereference chain and returns its root.
func (ix *refIndex) target(info *types.Info, fn types.Object, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.StarExpr:
		return ix.target(info, fn, x.X)
	case *ast.IndexExpr:
		return ix.target(info, fn, x.X)
	case *ast.SelectorExpr:
		if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			root := ix.target(info, fn, x.X)
			ix.mark(fn, sel.Obj().(*types.Var), root)
			return root
		}
	case *ast.Ident:
		return info.Uses[x]
	}
	return nil
}

// mark records v as set through root. In a method of v's own type only a
// write through its pointer receiver counts: a value receiver or a local
// copy filling in defaults is not a caller choosing a value.
func (ix *refIndex) mark(fn types.Object, v *types.Var, root types.Object) {
	if m, ok := fn.(*types.Func); ok && recvNamed(m) != nil {
		own, _, _ := types.LookupFieldOrMethod(recvNamed(m), false, v.Pkg(), v.Name())
		viaRecv := ptrRecv(m) && root == m.Type().(*types.Signature).Recv()
		if own != nil && own.Pos() == v.Pos() && !viaRecv {
			return
		}
	}
	ix.set[v.Origin()] = true
}

// ptrRecv reports whether the method m has a pointer receiver.
func ptrRecv(m types.Object) bool {
	_, ok := m.Type().(*types.Signature).Recv().Type().(*types.Pointer)
	return ok
}
