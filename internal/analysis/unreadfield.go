package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UnreadFieldAnalyzer flags a field of a struct type declared outside
// package main that no non-test file under a module root reads (see
// noteReads): write-only state, computed for no reader.
var UnreadFieldAnalyzer = &Analyzer{
	Name: RuleUnreadField,
	Run:  runUnreadField,
}

func runUnreadField(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, _ := tn.Type().Underlying().(*types.Struct)
		for i := 0; st != nil && i < st.NumFields(); i++ {
			v := st.Field(i)
			if v.Name() != "_" && !v.Embedded() && v.Pkg() == pass.Pkg && !pass.refs.read[v] {
				pass.Reportf(v.Pos(), "%s.%s is read by no non-test file: delete it with the code that computes it", name, v.Name())
			}
		}
	}
}

// noteReads records the fields n reads. Every field selector is a read
// except one that an assignment, op-assignment or inc/dec writes, directly
// or by writing into its value or its map or slice elements (written holds
// those, keyed before the walk reaches them). A value passed to an
// interface-typed parameter reads every field of its type, and so does a
// struct value compared with == or != (a pointer compared reads nothing).
func (ix *refIndex) noteReads(info *types.Info, written map[*ast.SelectorExpr]bool, n ast.Node) {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		if sel := info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !written[n] {
			ix.read[sel.Obj().(*types.Var).Origin()] = true
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			writeChain(info, written, lhs)
		}
	case *ast.IncDecStmt:
		writeChain(info, written, n.X)
	case *ast.CallExpr:
		tv := info.Types[n.Fun]
		sig, ok := tv.Type.(*types.Signature)
		if !ok || tv.IsType() {
			return
		}
		params := sig.Params()
		for i, arg := range n.Args {
			var p types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1 && !n.Ellipsis.IsValid():
				p = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			case i < params.Len():
				p = params.At(i).Type()
			}
			if p != nil && types.IsInterface(p) {
				ix.readAll(info.Types[arg].Type)
			}
		}
	case *ast.BinaryExpr:
		if n.Op != token.EQL && n.Op != token.NEQ {
			return
		}
		for _, e := range []ast.Expr{n.X, n.Y} {
			t := info.Types[e].Type
			if _, ptr := t.Underlying().(*types.Pointer); !ptr {
				ix.readAll(t)
			}
		}
	}
}

// writeChain marks the field selectors the write target e writes: the
// target itself, and each value it lies in up to the first pointer, which
// the write follows and so reads.
func writeChain(info *types.Info, written map[*ast.SelectorExpr]bool, e ast.Expr) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			written[x] = true
			if _, ptr := info.Types[x.X].Type.Underlying().(*types.Pointer); !ptr {
				writeChain(info, written, x.X)
			}
		}
	case *ast.IndexExpr:
		switch info.Types[x.X].Type.Underlying().(type) {
		case *types.Map, *types.Slice, *types.Array:
			writeChain(info, written, x.X)
		}
	}
}

// readAll marks every field of t's struct type, through one pointer, read,
// and the fields of the struct values nested in it.
func (ix *refIndex) readAll(t types.Type) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	for i := 0; st != nil && i < st.NumFields(); i++ {
		f := st.Field(i)
		ix.read[f.Origin()] = true
		if _, nested := f.Type().Underlying().(*types.Struct); nested {
			ix.readAll(f.Type())
		}
	}
}
