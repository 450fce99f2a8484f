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
// can share a line with guarded-by annotations and real code.
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

// testLoader is shared by every test that analyzes a tree: the source
// importer caches by import path, so the standard library is type-checked
// once for the binary, not once per fixture (fixture package paths are
// distinct, and fixtures are checked, never imported).
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
		"guarded-by/gb",
		"seeded-source/src",
		"constructed-loaded-program/clp",
		"discarded-verify-error/dve",
		"discarded-run-error/dre",
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
