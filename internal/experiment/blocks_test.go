package experiment

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// EXPERIMENTS.md records what Render writes for each figure at Quick scale
// as a fenced block whose info string is "tsbench <figure>". Each shape test
// renders the rows it computed and holds the text to its figure's block;
// with -update it records the text instead, and TestMain rewrites the
// blocks once every test has run, so that parallel tests never write the
// file over each other.

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's figure blocks from this run")

const (
	experimentsMD = "../../EXPERIMENTS.md"
	blockOpen     = "```tsbench "
	blockClose    = "```"
)

var (
	// docLines is EXPERIMENTS.md, read once by TestMain.
	docLines []string
	// rendered holds each figure's text from this run, under renderedMu,
	// when -update is set.
	renderedMu sync.Mutex
	rendered   = map[string]string{}
)

func TestMain(m *testing.M) {
	flag.Parse()
	b, err := os.ReadFile(experimentsMD)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	docLines = strings.Split(string(b), "\n")
	code := m.Run()
	if *update && len(rendered) > 0 {
		if err := os.WriteFile(experimentsMD, []byte(strings.Join(rewriteBlocks(docLines, rendered), "\n")), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// docBlock is one fenced figure block: its figure and the lines between
// its fences, docLines[open+1:close].
type docBlock struct {
	figure      string
	open, close int
}

// blocks finds every figure block in lines, in order. A block with no
// closing fence runs to the end of the document.
func blocks(lines []string) []docBlock {
	var out []docBlock
	for i := 0; i < len(lines); i++ {
		figure, ok := strings.CutPrefix(lines[i], blockOpen)
		if !ok {
			continue
		}
		b := docBlock{figure: strings.TrimSpace(figure), open: i, close: len(lines)}
		for i++; i < len(lines); i++ {
			if lines[i] == blockClose {
				b.close = i
				break
			}
		}
		out = append(out, b)
	}
	return out
}

// blockText is figure's recorded text, with a newline after every line.
func blockText(figure string) (string, bool) {
	for _, b := range blocks(docLines) {
		if b.figure == figure {
			var s strings.Builder
			for _, l := range docLines[b.open+1 : b.close] {
				s.WriteString(l + "\n")
			}
			return s.String(), true
		}
	}
	return "", false
}

// rewriteBlocks returns lines with each block named in texts holding that
// text instead.
func rewriteBlocks(lines []string, texts map[string]string) []string {
	var out []string
	last := 0
	for _, b := range blocks(lines) {
		text, ok := texts[b.figure]
		if !ok {
			continue
		}
		out = append(out, lines[last:b.open+1]...)
		out = append(out, strings.Split(strings.TrimSuffix(text, "\n"), "\n")...)
		last = b.close
	}
	return append(out, lines[last:]...)
}

// checkBlock renders rows with draw and fails t, naming figure and every
// line that differs, unless the text is figure's block in EXPERIMENTS.md.
// With -update it records the text for TestMain to write.
func checkBlock[R any](t *testing.T, figure string, rows R, draw func(io.Writer, R)) {
	t.Helper()
	var got strings.Builder
	draw(&got, rows)
	if *update {
		renderedMu.Lock()
		rendered[figure] = got.String()
		renderedMu.Unlock()
		return
	}
	want, ok := blockText(figure)
	if !ok {
		t.Errorf("EXPERIMENTS.md has no %q block for %s", blockOpen+figure, figure)
		return
	}
	if d := lineDiff(want, got.String()); d != "" {
		t.Errorf("%s differs from its block in EXPERIMENTS.md (`go test ./internal/experiment -update` re-records it):\n%s", figure, d)
	}
}

// lineDiff lists, line by line, where got differs from want.
func lineDiff(want, got string) string {
	w := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	g := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	var d strings.Builder
	for i := range max(len(w), len(g)) {
		wl, gl := "(none)", "(none)"
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&d, "line %d\n  block: %s\n  run:   %s\n", i+1, wl, gl)
		}
	}
	return d.String()
}

// TestFiguresHaveOneBlockEach runs no experiment: EXPERIMENTS.md holds one
// block per figure Render draws, in Figures' order, and every block names
// one of them, so that `tsbench all` prints the blocks concatenated.
func TestFiguresHaveOneBlockEach(t *testing.T) {
	count := map[string]int{}
	var names []string
	for _, b := range blocks(docLines) {
		if b.close == len(docLines) {
			t.Errorf("the %s block has no closing fence", b.figure)
		}
		if !slices.Contains(Figures, b.figure) {
			t.Errorf("EXPERIMENTS.md has a block for %q, which Render does not draw", b.figure)
		}
		count[b.figure]++
		names = append(names, b.figure)
	}
	for _, f := range Figures {
		if count[f] != 1 {
			t.Errorf("EXPERIMENTS.md has %d blocks for %s, want 1", count[f], f)
		}
	}
	if !t.Failed() && !slices.Equal(names, Figures) {
		t.Errorf("EXPERIMENTS.md's blocks are in the order %v, want Figures' %v", names, Figures)
	}
}

func TestRewriteBlocks(t *testing.T) {
	doc := []string{"# x", "```tsbench a", "old a", "```", "text", "```tsbench b", "old b", "old b2", "```", ""}
	got := rewriteBlocks(doc, map[string]string{"b": "new b\n", "a": "new a\nnew a2\n"})
	want := []string{"# x", "```tsbench a", "new a", "new a2", "```", "text", "```tsbench b", "new b", "```", ""}
	if !slices.Equal(got, want) {
		t.Fatalf("rewriteBlocks = %q, want %q", got, want)
	}
	if d := lineDiff("x\ny\n", "x\nz\nw\n"); d != "line 2\n  block: y\n  run:   z\nline 3\n  block: (none)\n  run:   w\n" {
		t.Fatalf("lineDiff = %q", d)
	}
}
