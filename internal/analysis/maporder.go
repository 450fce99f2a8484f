package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// sinkMethodNames are method names whose invocation inside a map-range
// body makes iteration order observable: byte/row emission (archives,
// sinks, WAL staging, hashes — hash.Hash is an io.Writer), and staged
// submission. The set matches on name across all receiver types: a method
// called Write that is order-insensitive is rare enough that an explicit
// //tsvet:ignore with a reason is the right price.
var sinkMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "WriteRow": true, "WriteBatch": true,
	"Flush": true, "Submit": true, "SubmitFrom": true, "Stage": true,
	"Archive": true, "Record": true,
}

// fmtPrintFuncs are the fmt functions that emit directly to a stream.
// Sprint*/Errorf build values and are not sinks by themselves.
var fmtPrintFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// MapOrderAnalyzer flags ranging over a map when the loop body reaches an
// order-sensitive sink with no intervening sort. Go randomizes map
// iteration order per range statement, so anything the sink observes —
// rendered stats, archived rows, fingerprint accumulators, float sums —
// differs run to run. The sanctioned idiom (collect keys, sort, range the
// slice) never ranges the map around a sink and is not flagged; a sort
// call inside the body is likewise accepted as the ordering step.
var MapOrderAnalyzer = &Analyzer{
	Name: RuleMapOrder,
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if sink, what := findOrderSink(pass, rs.Body); sink != nil {
				pass.Reportf(rs.Pos(),
					"map iteration order reaches %s (line %d); collect and sort the keys first",
					what, pass.Fset.Position(sink.Pos()).Line)
			}
			return true
		})
	}
}

// findOrderSink scans a map-range body for the first order-sensitive sink.
// A call into the sort package anywhere in the body vouches for the loop
// (the body is doing its own ordering) and clears it.
func findOrderSink(pass *Pass, body *ast.BlockStmt) (ast.Node, string) {
	var sink ast.Node
	var what string
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		switch node := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, node)
			if fn == nil {
				return true
			}
			if funcPkgPath(fn) == "sort" {
				sorted = true
				return false
			}
			if sink != nil {
				return true
			}
			if funcPkgPath(fn) == "fmt" && fmtPrintFuncs[fn.Name()] {
				sink, what = node, "fmt."+fn.Name()+" output"
				return true
			}
			if recvNamed(fn) != nil && sinkMethodNames[fn.Name()] {
				sink, what = node, "."+fn.Name()+" on "+recvNamed(fn).Obj().Name()
				return true
			}
		case *ast.AssignStmt:
			if sink != nil {
				return true
			}
			// Order-sensitive accumulation: compound float or string
			// assignment into state that outlives the loop body. Integer
			// accumulation is exact and commutative; float addition is
			// neither, and string append bakes the visit order in.
			if len(node.Lhs) != 1 || !isAccumOp(node.Tok) {
				return true
			}
			lhs := node.Lhs[0]
			tv, ok := pass.Info.Types[lhs]
			if !ok || !isOrderSensitiveBasic(tv.Type, node.Tok) {
				return true
			}
			if declaredWithin(pass, lhs, body) {
				return true
			}
			sink, what = node, "order-sensitive accumulation (float/string "+node.Tok.String()+")"
		}
		return true
	})
	if sorted {
		return nil, ""
	}
	return sink, what
}

func isAccumOp(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	}
	return false
}

// isOrderSensitiveBasic reports whether accumulating into t with op is
// order-sensitive: any float/complex compound op, or string +=.
func isOrderSensitiveBasic(t types.Type, tok token.Token) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch {
	case b.Info()&types.IsFloat != 0, b.Info()&types.IsComplex != 0:
		return true
	case b.Info()&types.IsString != 0:
		return tok == token.ADD_ASSIGN
	}
	return false
}

// declaredWithin reports whether the root identifier of lhs is declared
// inside body — accumulating into loop-local state resets every iteration
// and cannot leak order.
func declaredWithin(pass *Pass, lhs ast.Expr, body *ast.BlockStmt) bool {
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.StarExpr:
			lhs = e.X
			continue
		case *ast.ParenExpr:
			lhs = e.X
			continue
		case *ast.Ident:
			obj := pass.Info.Uses[e]
			if obj == nil {
				obj = pass.Info.Defs[e]
			}
			return obj != nil && obj.Pos() >= body.Pos() && obj.Pos() < body.End()
		default:
			// Selector or anything else rooted outside local scope:
			// treat as outliving the loop (conservative).
			return false
		}
	}
}
