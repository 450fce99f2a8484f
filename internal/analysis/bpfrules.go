package analysis

import (
	"go/ast"
	"go/types"
)

// The three rules migrated from the original syntactic bpfcheck, now
// matched through go/types. The old pass matched `.Run` by method *name*
// on any receiver — flagging unrelated Run methods (false positive) and
// missing `lp.Run` captured as a method value (false negative). Receiver
// types end both: only bpf.LoadedProgram's execution entry points are the
// hot path, and a method value of one is itself a finding.

// verifyEntryPoints are the bpf package-level functions whose error result
// is the verification verdict.
var verifyEntryPoints = map[string]bool{
	"Verify": true, "Analyze": true, "Load": true, "Optimize": true,
}

// runMethodNames are LoadedProgram's execution entry points: their final
// result is the runtime fault.
var runMethodNames = map[string]bool{"Run": true, "RunInterpreted": true}

// drainReceivers lists the (package suffix, type) pairs whose
// Drain/DrainBatch results carry drain accounting a caller may not blank
// out (a bare statement is the sanctioned quiesce idiom and stays legal).
var drainReceivers = []struct{ pkgSuffix, typeName string }{
	{"internal/tscout", "Processor"},
	{bpfPkgSuffix, "PerCPURing"},
}

// ConstructedLoadedProgramAnalyzer flags composite literals of
// bpf.LoadedProgram outside the bpf package: a LoadedProgram that did not
// come from bpf.Load never passed the verifier, and running it would
// execute unproven code on the marker hot path.
var ConstructedLoadedProgramAnalyzer = &Analyzer{
	Name: RuleConstructedLoadedProgram,
	Doc:  "only bpf.Load may produce a bpf.LoadedProgram; composite literals bypass the verifier",
	Run:  runConstructedLoadedProgram,
}

func runConstructedLoadedProgram(pass *Pass) {
	if hasPathSuffix(pass.RelPath, bpfPkgSuffix) {
		return // the bpf package constructs its own states by design
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[lit]
			if !ok {
				return true
			}
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return true
			}
			obj := named.Obj()
			if obj.Name() == "LoadedProgram" && obj.Pkg() != nil && hasPathSuffix(obj.Pkg().Path(), bpfPkgSuffix) {
				pass.Reportf(lit.Pos(),
					"bpf.LoadedProgram constructed directly; only bpf.Load returns verified programs")
			}
			return true
		})
	}
}

// DiscardedVerifyErrorAnalyzer flags discarding the error result of the
// bpf verification entry points: ignoring the verdict defeats the
// verify-before-run contract.
var DiscardedVerifyErrorAnalyzer = &Analyzer{
	Name: RuleDiscardedVerifyError,
	Doc:  "the error from bpf.Verify/Analyze/Load/Optimize must be checked, never discarded",
	Run:  runDiscardedVerifyError,
}

func runDiscardedVerifyError(pass *Pass) {
	if hasPathSuffix(pass.RelPath, bpfPkgSuffix) {
		return
	}
	verifyCallee := func(expr ast.Expr) *types.Func {
		call, ok := expr.(*ast.CallExpr)
		if !ok {
			return nil
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || !verifyEntryPoints[fn.Name()] || recvNamed(fn) != nil {
			return nil
		}
		if !hasPathSuffix(funcPkgPath(fn), bpfPkgSuffix) {
			return nil
		}
		return fn
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.ExprStmt:
				if fn := verifyCallee(node.X); fn != nil {
					pass.Reportf(node.Pos(),
						"result of bpf.%s discarded; the verification verdict must be checked", fn.Name())
				}
			case *ast.GoStmt:
				if fn := verifyCallee(node.Call); fn != nil {
					pass.Reportf(node.Pos(),
						"result of bpf.%s discarded by go statement; the verification verdict must be checked", fn.Name())
				}
			case *ast.DeferStmt:
				if fn := verifyCallee(node.Call); fn != nil {
					pass.Reportf(node.Pos(),
						"result of bpf.%s discarded by defer statement; the verification verdict must be checked", fn.Name())
				}
			case *ast.AssignStmt:
				if len(node.Rhs) != 1 {
					return true
				}
				fn := verifyCallee(node.Rhs[0])
				if fn == nil {
					return true
				}
				sig := fn.Type().(*types.Signature)
				errIdx := errorResultIndex(sig)
				if errIdx >= 0 && errIdx < len(node.Lhs) && isBlank(node.Lhs[errIdx]) {
					pass.Reportf(node.Pos(),
						"error from bpf.%s assigned to _; the verification verdict must be checked", fn.Name())
				}
			}
			return true
		})
	}
}

// errorResultIndex returns the index of the last error-typed result, or -1.
func errorResultIndex(sig *types.Signature) int {
	results := sig.Results()
	for i := results.Len() - 1; i >= 0; i-- {
		if named, ok := results.At(i).Type().(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return i
		}
	}
	return -1
}

// DiscardedRunErrorAnalyzer flags swallowing the execution hot path's
// fault result — the exact shape of the Attach bug that silently dropped
// runtime faults until PR 6. Matched by receiver type, it reaches inside
// internal/bpf too (the bug lived there).
var DiscardedRunErrorAnalyzer = &Analyzer{
	Name: RuleDiscardedRunError,
	Doc:  "runtime faults from .Run/.RunInterpreted and drain accounting from .Drain/.DrainBatch must be counted, not swallowed",
	Run:  runDiscardedRunError,
}

// isRunMethod reports whether fn is LoadedProgram.Run/RunInterpreted.
func isRunMethod(fn *types.Func) bool {
	return fn != nil && runMethodNames[fn.Name()] && isMethodOn(fn, bpfPkgSuffix, "LoadedProgram")
}

// isDrainMethod reports whether fn is Drain/DrainBatch on one of the
// drain-accounting receivers.
func isDrainMethod(fn *types.Func) bool {
	if fn == nil || (fn.Name() != "Drain" && fn.Name() != "DrainBatch") {
		return false
	}
	for _, r := range drainReceivers {
		if isMethodOn(fn, r.pkgSuffix, r.typeName) {
			return true
		}
	}
	return false
}

func runDiscardedRunError(pass *Pass) {
	for _, f := range pass.Files {
		// Selector expressions that are the operator of a call: everything
		// else resolving to a run method is a method value that smuggles
		// the call past statement-level checks.
		callFuns := make(map[ast.Expr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				callFuns[ast.Unparen(call.Fun)] = true
			}
			return true
		})
		reportDropped := func(call ast.Expr, how string) {
			c, ok := call.(*ast.CallExpr)
			if !ok {
				return
			}
			if fn := calleeFunc(pass.Info, c); isRunMethod(fn) {
				pass.Reportf(c.Pos(),
					"error from .%s %s; runtime faults must be counted, not swallowed", fn.Name(), how)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.ExprStmt:
				reportDropped(node.X, "dropped")
			case *ast.GoStmt:
				reportDropped(node.Call, "dropped by go statement")
			case *ast.DeferStmt:
				reportDropped(node.Call, "dropped by defer statement")
			case *ast.AssignStmt:
				if len(node.Rhs) != 1 {
					return true
				}
				call, ok := node.Rhs[0].(*ast.CallExpr)
				if !ok || !isBlank(node.Lhs[len(node.Lhs)-1]) {
					return true
				}
				fn := calleeFunc(pass.Info, call)
				switch {
				case isRunMethod(fn):
					pass.Reportf(node.Pos(),
						"error from .%s assigned to _; runtime faults must be counted, not swallowed", fn.Name())
				case isDrainMethod(fn):
					pass.Reportf(node.Pos(),
						"result of .%s assigned to _; drain accounting must be counted, not swallowed", fn.Name())
				}
			case *ast.SelectorExpr:
				if callFuns[node] {
					return true
				}
				sel, ok := pass.Info.Selections[node]
				if !ok || sel.Kind() != types.MethodVal {
					return true
				}
				if fn, ok := sel.Obj().(*types.Func); ok && isRunMethod(fn) {
					pass.Reportf(node.Pos(),
						"method value of .%s hides the fault result from this check; call it directly and handle the error", fn.Name())
				}
			}
			return true
		})
	}
}
