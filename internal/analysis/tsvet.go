// Package analysis is tsvet: the repo-local, go/types-backed static
// analysis suite that `make lint` and scripts/check.sh run over the whole
// tree. Where the DBMS trusts its BPF verifier to prove Collector programs
// safe before they run, the repo trusts tsvet to prove two properties the
// test strategy silently leans on — bit-determinism (no wall clock, no
// global RNG, no map-iteration order leaking into archives, fingerprints,
// or rendered output) and accounting discipline (no swallowed verification
// or runtime faults) — and to keep dead code out of the build: a function
// that only tests call lives in the tests, and a field no caller sets, or
// no code reads, goes.
//
// The suite is a set of small analyzers sharing one typed loader (see
// load.go), which type-checks each package of the module once and is the
// importer their imports of each other resolve through, one driver
// (driver.go) and one reference walk (refs.go). Each
// analyzer owns a stable rule ID (its Name), reports positioned
// diagnostics, and can be silenced on a single line with a written reason:
//
//	//tsvet:ignore <rule> <reason...>
//
// The directive suppresses findings of exactly that rule on its own line
// (end-of-line form) or on the line directly below (own-line form). A
// directive with no written reason is itself reported (malformed-ignore),
// and a directive that suppresses nothing is reported too (stale-ignore) —
// suppressions must never outlive the code they excuse.
//
// DESIGN.md §12 documents each analyzer's invariant; testdata/src/<rule>/
// holds the golden fixtures.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Rule IDs, stable for grepping, suppressions, and test assertions. Each
// analyzer's Name is its rule ID; the two framework rules (stale-ignore,
// malformed-ignore) are emitted by the suppression layer itself.
const (
	// RuleWallClock bans wall-clock time (time.Now/Since/Until/Sleep and
	// the timer constructors) and the top-level math/rand functions (the
	// process-global, racily-shared source) in simulation-critical
	// packages: every timestamp must come from the virtual clock and every
	// random draw from a keyed sim.PCG or a sim noise stream, or
	// identical seeds stop producing identical archives.
	RuleWallClock = "wall-clock"
	// RuleMapOrder flags ranging over a map when the loop body reaches an
	// order-sensitive sink (fmt output, Write*/Submit/Stage-style sink
	// methods, or floating-point/string accumulation into state declared
	// outside the loop) without an intervening sort: map iteration order
	// is deliberately randomized by the runtime, so whatever the sink
	// observes differs run to run. Collecting keys into a slice and
	// sorting is the sanctioned idiom and is not flagged.
	RuleMapOrder = "map-order"
	// RuleSeededSource flags, in non-test code, rand.NewSource under
	// internal/, cmd/ and examples/ (every simulation stream is a keyed
	// PCG, sim.NewPCG), rand.NewSource or sim.NewPCG with a
	// compile-time-constant seed (seeds must arrive through config so runs
	// are reproducible *and* steerable), and — outside the
	// simulation-critical packages wall-clock already covers — any use of
	// math/rand's unseeded process-global source.
	RuleSeededSource = "seeded-source"
	// RuleConstructedLoadedProgram flags composite literals of
	// bpf.LoadedProgram outside the bpf package: a LoadedProgram that did
	// not come from bpf.Load never passed verification.
	RuleConstructedLoadedProgram = "constructed-loaded-program"
	// RuleDiscardedVerifyError flags discarding the error result of
	// bpf.Verify, bpf.Load, bpf.Analyze or bpf.LoadedProgram.Compile
	// (blank identifier, bare call statement, or go/defer): ignoring the
	// verdict defeats the verify-before-run contract.
	RuleDiscardedVerifyError = "discarded-verify-error"
	// RuleDiscardedRunError flags swallowing the fault result of the
	// execution hot path, matched by receiver type: bare/go/defer calls,
	// blanked trailing results, and method values of bpf.LoadedProgram.Run
	// (which smuggle the call past any statement-level check), and a
	// bpf.PerCPURing.DrainBatch count assigned to _.
	RuleDiscardedRunError = "discarded-run-error"
	// RuleUnsafeImport flags an import of unsafe in any non-test file but
	// internal/storage/value.go, home of the 16-byte storage.Value cell.
	RuleUnsafeImport = "unsafe-import"
	// RuleUnusedFunc flags an unexported package-level function or method
	// that no non-test file of its package references and, for a method,
	// that satisfies no interface: dead in the build, it belongs in the
	// test file that uses it, or nowhere.
	RuleUnusedFunc = "unused-func"
	// RuleUnusedExport flags an exported function or method that no
	// non-test file under a module root references and that satisfies no
	// interface: dead in the build, it belongs in the test files that use
	// it, or nowhere.
	RuleUnusedExport = "unused-export"
	// RuleUnsetField flags an exported struct field no non-test file sets.
	RuleUnsetField = "unset-field"
	// RuleUnreadField flags a struct field no non-test file reads.
	RuleUnreadField = "unread-field"
	// RuleStaleIgnore reports a //tsvet:ignore directive that suppressed
	// nothing: the finding it excused is gone, so the directive must go
	// too.
	RuleStaleIgnore = "stale-ignore"
	// RuleMalformedIgnore reports a //tsvet:ignore directive with an
	// unknown rule or no written reason.
	RuleMalformedIgnore = "malformed-ignore"
)

// Analyzer is one tsvet check: a stable rule ID and a Run function that
// inspects a fully type-checked package.
type Analyzer struct {
	// Name is the rule ID (kebab-case, stable across releases).
	Name string
	// Run inspects the pass's package and reports findings via
	// pass.Reportf.
	Run func(*Pass)
}

// Pass is one (analyzer, package) unit of work: the parsed files, the
// type-checked package, and the reporting sink.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset positions every node in Files.
	Fset *token.FileSet
	// Files are the package's non-test files, parsed with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's resolutions for Files.
	Info *types.Info
	// RelPath is the package directory relative to the analysis root
	// (module-prefix-free, slash-separated); analyzers that scope
	// themselves to parts of the tree match against this.
	RelPath string

	refs   *refIndex
	report func(Diagnostic)
}

// Reportf records a finding for this pass's rule at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned for editor navigation.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		WallClockAnalyzer,
		MapOrderAnalyzer,
		SeededSourceAnalyzer,
		ConstructedLoadedProgramAnalyzer,
		DiscardedVerifyErrorAnalyzer,
		DiscardedRunErrorAnalyzer,
		UnsafeImportAnalyzer,
		UnusedFuncAnalyzer,
		UnusedExportAnalyzer,
		UnsetFieldAnalyzer,
		UnreadFieldAnalyzer,
	}
}

// knownRules is the set of suppressible rule IDs; the suppression layer
// validates //tsvet:ignore directives against it.
func knownRules() map[string]bool {
	m := make(map[string]bool)
	for _, a := range All() {
		m[a.Name] = true
	}
	return m
}

// criticalSegments are the path segments that mark a package as
// simulation-critical: code on these paths feeds archives, fingerprints,
// noise streams, or replay order, so wall-clock time and global RNG are
// banned outright (wall-clock) rather than merely discouraged.
var criticalSegments = map[string]bool{
	"sim": true, "kernel": true, "bpf": true, "tscout": true,
	"wal": true, "workload": true, "dbms": true,
}

// simCritical reports whether the package at relPath is one of the
// simulation-critical trees.
func simCritical(relPath string) bool { return hasSegment(relPath, criticalSegments) }

// hasSegment reports whether one of relPath's segments is in segs.
func hasSegment(relPath string, segs map[string]bool) bool {
	for _, seg := range strings.Split(relPath, "/") {
		if segs[seg] {
			return true
		}
	}
	return false
}

// bpfPkgSuffix identifies the verified-execution package by import-path
// suffix, so the rules keep working if the module is renamed or vendored.
const bpfPkgSuffix = "internal/bpf"

// hasPathSuffix reports whether path is suffix or ends in "/"+suffix.
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// calleeFunc resolves the function or method a call expression invokes,
// or nil when the callee is not a named function (a func value, a
// conversion, a builtin).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcPkgPath returns the import path of the package declaring fn, or ""
// for builtins.
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// recvNamed returns the named type of fn's receiver (through one pointer),
// or nil for package-level functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isMethodOn reports whether fn is a method on the named type typeName
// declared in a package whose import path ends in pkgSuffix.
func isMethodOn(fn *types.Func, pkgSuffix, typeName string) bool {
	named := recvNamed(fn)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Name() != typeName || obj.Pkg() == nil {
		return false
	}
	return hasPathSuffix(obj.Pkg().Path(), pkgSuffix)
}

// isBlank reports whether expr is the blank identifier.
func isBlank(expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	return ok && id.Name == "_"
}
