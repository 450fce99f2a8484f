package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loader parses and type-checks one package directory at a time, sharing a
// FileSet and a source importer so dependency packages (stdlib and
// module-internal alike) are type-checked once and cached for the whole
// run. The source importer resolves module-internal import paths by
// consulting the go tool, so the loader works anywhere inside the module —
// including testdata fixture trees, which `go build` itself never touches.
type loader struct {
	fset *token.FileSet
	imp  types.Importer
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// pkgInfo is one fully type-checked package ready for analysis.
type pkgInfo struct {
	RelPath string
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// load parses the non-test Go files in dir and type-checks them as the
// package pkgPath. Type errors are hard failures: an analyzer walking a
// partially-resolved package would silently miss findings, which is worse
// than failing loudly.
func (l *loader) load(dir, relPath, pkgPath string) (*pkgInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tsvet: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("tsvet: parse %s: %w", filepath.Join(dir, name), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l.imp, FakeImportC: true}
	pkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("tsvet: typecheck %s: %w", pkgPath, err)
	}
	return &pkgInfo{RelPath: relPath, Files: files, Pkg: pkg, Info: info}, nil
}

// modulePath reads the module declaration from root/go.mod, or "" when the
// root is not a module (fixture trees).
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// moduleContext anchors an analysis root inside its enclosing module: it
// returns the module path and the root's slash-separated path relative to
// the module root ("" when the root is the module root or no module
// encloses it). Anchoring matters for path-scoped rules — analyzing
// ./internal/workload must classify packages exactly as analyzing the repo
// root does, or a subtree invocation would silently weaken (or shift) the
// wall-clock/seeded-source partition.
func moduleContext(root string) (module, prefix string) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return modulePath(root), ""
	}
	for dir := abs; ; {
		if m := modulePath(dir); m != "" {
			rel, err := filepath.Rel(dir, abs)
			if err != nil || rel == "." {
				return m, ""
			}
			return m, filepath.ToSlash(rel)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", ""
		}
		dir = parent
	}
}

// packageDirs walks root and returns every directory holding at least one
// non-test Go file, sorted, as paths relative to root. testdata trees
// (fixtures, not shipped code) and hidden directories are skipped.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, rerr := filepath.Rel(root, filepath.Dir(path))
		if rerr != nil {
			return rerr
		}
		rel = filepath.ToSlash(rel)
		if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
			dirs = append(dirs, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// WalkDir visits files in directory order, so duplicates can only be
	// adjacent after sorting.
	out := dirs[:0]
	for _, d := range dirs {
		if len(out) == 0 || out[len(out)-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}
