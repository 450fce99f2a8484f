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
	"slices"
	"sort"
	"strings"
)

// loader parses and type-checks packages over one FileSet, and is their
// importer: a path inside the module whose go.mod encloses the importing
// directory is checked by the loader itself and cached by import path, so
// a run checks each module package once, whether it reaches the package
// as a root or through an import, and each declaration is one
// types.Object. Testdata fixture trees, which the go tool never sees,
// resolve their imports the same way. Only paths outside the module (the
// standard library) go to the source importer, which caches them for the
// loader's lifetime.
type loader struct {
	fset     *token.FileSet
	std      types.ImporterFrom
	pkgs     map[string]*pkgInfo // checked packages, by import path
	checking []string            // import paths being checked, outermost first
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*pkgInfo),
	}
}

// pkgInfo is one fully type-checked package ready for analysis.
type pkgInfo struct {
	RelPath string
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// load parses the non-test Go files in dir and type-checks them as the
// package pkgPath, or returns the package already checked under that path.
// Type errors are hard failures: an analyzer walking a partially-resolved
// package would silently miss findings, which is worse than failing
// loudly. So is a package that imports itself, directly or not: it is
// still being checked when the import reaches it again.
func (l *loader) load(dir, relPath, pkgPath string) (*pkgInfo, error) {
	if pkg, ok := l.pkgs[pkgPath]; ok {
		return pkg, nil
	}
	if i := slices.Index(l.checking, pkgPath); i >= 0 {
		return nil, fmt.Errorf("tsvet: import cycle: %s -> %s", strings.Join(l.checking[i:], " -> "), pkgPath)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tsvet: %s: %w", pkgPath, err)
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
		return nil, fmt.Errorf("tsvet: %s: no non-test Go files in %s", pkgPath, dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	l.checking = append(l.checking, pkgPath)
	pkg, err := conf.Check(pkgPath, l.fset, files, info)
	l.checking = l.checking[:len(l.checking)-1]
	if err != nil {
		return nil, fmt.Errorf("tsvet: typecheck %s: %w", pkgPath, err)
	}
	l.pkgs[pkgPath] = &pkgInfo{RelPath: relPath, Files: files, Pkg: pkg, Info: info}
	return l.pkgs[pkgPath], nil
}

// Import is ImportFrom the working directory.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

// ImportFrom answers an import by the package whose files are in dir.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	module, root := findModule(abs)
	relPath, inModule := strings.CutPrefix(path, module+"/")
	if path == module {
		relPath, inModule = ".", true
	}
	if module == "" || !inModule {
		return l.std.ImportFrom(path, dir, mode)
	}
	// Spell the package's directory from dir, as the importer's own files
	// are spelled, so its positions read as a run over the same root
	// would print them.
	rel, _ := filepath.Rel(abs, filepath.Join(root, relPath)) // both absolute
	pkg, err := l.load(filepath.Join(dir, rel), relPath, path)
	if err != nil {
		return nil, err
	}
	return pkg.Pkg, nil
}

// findModule returns the module path the go.mod nearest above the absolute
// directory dir declares, and the directory holding it; both are "" when
// no go.mod encloses dir.
func findModule(dir string) (module, root string) {
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return strings.TrimSpace(rest), dir
				}
			}
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
