package analysis

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe extracts expected-diagnostic markers from fixture sources. The
// marker rides inside an ordinary comment — `// want:rule-a,rule-b` — so it
// can share a line with real code.
var wantRe = regexp.MustCompile(`want:([a-z-]+(?:,[a-z-]+)*)`)

// lineKey identifies a source line across the fixture's files.
type lineKey struct {
	file string // base name
	line int
}

// wantedDiags scans every non-test .go file in dir for want markers and
// returns the expected rules per line.
func wantedDiags(t *testing.T, dir string) map[lineKey][]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	want := make(map[lineKey][]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("open fixture: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				want[lineKey{e.Name(), line}] = append(want[lineKey{e.Name(), line}], strings.Split(m[1], ",")...)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scan fixture: %v", err)
		}
		f.Close()
	}
	return want
}

// gotDiags groups diagnostics by line for comparison against want markers.
func gotDiags(diags []Diagnostic) map[lineKey][]string {
	got := make(map[lineKey][]string)
	for _, d := range diags {
		k := lineKey{filepath.Base(d.File), d.Line}
		got[k] = append(got[k], d.Rule)
	}
	return got
}

// diffDiags fails the test for every line whose reported rules differ from
// the expected set.
func diffDiags(t *testing.T, want, got map[lineKey][]string, diags []Diagnostic) {
	t.Helper()
	keys := make(map[lineKey]bool)
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	ordered := make([]lineKey, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].file != ordered[j].file {
			return ordered[i].file < ordered[j].file
		}
		return ordered[i].line < ordered[j].line
	})
	clean := true
	for _, k := range ordered {
		w := append([]string(nil), want[k]...)
		g := append([]string(nil), got[k]...)
		sort.Strings(w)
		sort.Strings(g)
		if fmt.Sprint(w) != fmt.Sprint(g) {
			t.Errorf("%s:%d: want rules %v, got %v", k.file, k.line, w, g)
			clean = false
		}
	}
	if !clean {
		for _, d := range diags {
			t.Logf("reported: %s", d)
		}
	}
}

// runDir analyzes a single package directory:
// relPath doubles as the package path, so fixture trees can opt into
// path-scoped analyzers by embedding the segment they target. One package
// is not a closed world, so unused-export does not run.
func runDir(l *loader, dir, relPath string, suite []*Analyzer) ([]Diagnostic, error) {
	pkg, err := l.load(dir, relPath, relPath)
	if err != nil {
		return nil, err
	}
	return runPackages(l, []*pkgInfo{pkg}, suite, false), nil
}

// testLoader is shared by every test that analyzes a tree: it caches each
// package it checks by import path, and its source importer the standard
// library, so each is type-checked once for the binary, not once per
// fixture (fixture package and module paths are distinct).
var testLoader = newLoader()

// TestFixtures runs the full suite over each golden fixture package and
// compares reported rules against the fixtures' want markers, line by
// line. The fixture's path relative to testdata/src doubles as its
// package path, so path-scoped analyzers (wall-clock) see the segments
// they key on.
func TestFixtures(t *testing.T) {
	rels := []string{
		"wall-clock/sim",
		"wall-clock/noncritical",
		"map-order/src",
		"seeded-source/internal/ss",
		"seeded-source/tool",
		"constructed-loaded-program/clp",
		"discarded-verify-error/dve",
		"discarded-run-error/dre",
		"unsafe-import/internal/storage",
		"unsafe-import/other",
		"unused-func/uf",
	}
	for _, rel := range rels {
		t.Run(rel, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
			diags, err := runDir(testLoader, dir, rel, nil)
			if err != nil {
				t.Fatalf("runDir: %v", err)
			}
			diffDiags(t, wantedDiags(t, dir), gotDiags(diags), diags)
		})
	}
	// unused-export, unset-field and unread-field decide over a whole
	// module, so each fixture is one: a go.mod and two packages, run from
	// its root through runRoot.
	for _, rule := range []string{RuleUnusedExport, RuleUnsetField, RuleUnreadField} {
		t.Run(rule, func(t *testing.T) {
			root := filepath.Join("testdata", "src", rule)
			want := make(map[lineKey][]string)
			for _, pkg := range []string{"lib", filepath.Join("cmd", "app")} {
				for k, rules := range wantedDiags(t, filepath.Join(root, pkg)) {
					want[k] = rules
				}
			}
			diags, err := runRoot(testLoader, root, nil)
			if err != nil {
				t.Fatalf("runRoot: %v", err)
			}
			diffDiags(t, want, gotDiags(diags), diags)
			checkOneCopy(t, testLoader, root)
		})
	}
}

// checkOneCopy fails unless every import, by a package l has checked, of a
// path in root's module is the package l checked for that path: the run's
// own, so each declaration of the module is one types.Object.
func checkOneCopy(t *testing.T, l *loader, root string) {
	t.Helper()
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	module, _ := findModule(abs)
	n := 0
	for _, pkg := range l.pkgs {
		for _, imp := range pkg.Pkg.Imports() {
			if imp.Path() != module && !strings.HasPrefix(imp.Path(), module+"/") {
				continue
			}
			n++
			if own := l.pkgs[imp.Path()]; own == nil || own.Pkg != imp {
				t.Errorf("%s imports a second copy of %s", pkg.Pkg.Path(), imp.Path())
			}
		}
	}
	if n == 0 {
		t.Errorf("no checked package imports a package of module %q", module)
	}
}

// TestLoaderErrors: the loader answers module imports itself, so a module
// whose packages import each other, or that imports a path with no Go
// files, fails the run with an error naming the cycle or the path, rather
// than recursing for ever or analyzing a partial package.
func TestLoaderErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"cycle", map[string]string{
			"a/a.go": "package a\n\nimport _ \"m/b\"\n",
			"b/b.go": "package b\n\nimport _ \"m/a\"\n",
		}, "import cycle: m/a -> m/b -> m/a"},
		{"no Go files", map[string]string{
			"a/a.go":       "package a\n\nimport _ \"m/empty\"\n",
			"empty/doc.md": "no Go here\n",
		}, "m/empty: no non-test Go files"},
		{"no directory", map[string]string{
			"a/a.go": "package a\n\nimport _ \"m/gone\"\n",
		}, "m/gone: open"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			tc.files["go.mod"] = "module m\n\ngo 1.22\n"
			for name, src := range tc.files {
				file := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			diags, err := runRoot(newLoader(), root, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("runRoot = %v, %v; want an error containing %q", diags, err, tc.want)
			}
		})
	}
}

// TestSuppressionFixture pins the suppression layer's behavior on the
// suppress fixture: correct directives silence exactly their rule on
// exactly their line, a directive that names one of two same-line rules
// leaves the other standing, stale directives and directives without a
// reason are themselves findings, and an unreasoned directive does not
// suppress. Expectations are hard-coded because the directive lines cannot
// also carry want markers.
func TestSuppressionFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "suppress", "sup")
	diags, err := runDir(testLoader, dir, "suppress/sup", nil)
	if err != nil {
		t.Fatalf("runDir: %v", err)
	}
	want := map[lineKey][]string{
		{"sup.go", 26}: {RuleSeededSource},                      // map-order excused, seeded-source survives
		{"sup.go", 31}: {RuleStaleIgnore},                       // nothing left to excuse
		{"sup.go", 38}: {RuleMalformedIgnore, RuleSeededSource}, // no reason: reported, and nothing suppressed
		{"sup.go", 43}: {RuleMalformedIgnore},                   // unknown rule
	}
	diffDiags(t, want, gotDiags(diags), diags)
}

// TestRepoIsClean is the gate the ISSUE promises: the whole repo analyzes
// clean — every real finding fixed or explicitly suppressed with a reason.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	diags, err := runRoot(testLoader, "../..", nil)
	if err != nil {
		t.Fatalf("runRoot: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	checkOneCopy(t, testLoader, "../..")
}

// TestSubtreeRunSkipsModuleRules: below a module root, packages outside
// the root may call its exports (kernel.New has callers only outside
// internal/kernel) and set and read its fields, so none of unused-export,
// unset-field and unread-field runs there, and the kernel's directives for
// them are not reported stale.
func TestSubtreeRunSkipsModuleRules(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/kernel; skipped in -short")
	}
	diags, err := runRoot(testLoader, "../../internal/kernel", nil)
	if err != nil {
		t.Fatalf("runRoot: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestMainJSON pins the CLI contract: exit 1 on findings, and -json output
// that decodes into the Diagnostic schema.
func TestMainJSON(t *testing.T) {
	var out bytes.Buffer
	code := Main(&out, []string{"-json", filepath.Join("testdata", "src", "seeded-source")})
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; output:\n%s", code, out.String())
	}
	var diags []Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("decode JSON: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("no findings decoded from JSON output")
	}
	for _, d := range diags {
		if d.Rule != RuleSeededSource {
			t.Errorf("unexpected rule %q in %s", d.Rule, d)
		}
	}
}
