package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// ignoreDirective is one parsed //tsvet:ignore comment.
type ignoreDirective struct {
	file   string
	line   int // line the comment sits on
	rule   string
	reason string
	used   bool
}

const ignorePrefix = "//tsvet:ignore"

// collectIgnores parses every //tsvet:ignore directive in the pass's
// files. Directives with an unknown rule or a missing reason are reported
// immediately as malformed-ignore (and excluded from matching — a typo'd
// suppression must not silently succeed).
func collectIgnores(fset *token.FileSet, files []*ast.File, known map[string]bool, report func(Diagnostic)) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				rule, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				switch {
				case rule == "":
					report(Diagnostic{File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Rule: RuleMalformedIgnore, Message: "tsvet:ignore needs a rule and a reason: //tsvet:ignore <rule> <reason>"})
				case !known[rule]:
					report(Diagnostic{File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Rule: RuleMalformedIgnore, Message: "tsvet:ignore names unknown rule " + strconv.Quote(rule)})
				case reason == "":
					report(Diagnostic{File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Rule: RuleMalformedIgnore, Message: "tsvet:ignore " + rule + " has no written reason; every suppression must say why"})
				default:
					out = append(out, &ignoreDirective{file: pos.Filename, line: pos.Line, rule: rule, reason: reason})
				}
			}
		}
	}
	return out
}

// applyIgnores filters diags through the directives: a directive silences
// findings of its rule on its own line (end-of-line form) or, when its own
// line has none, on the line directly below (own-line form). Each
// directive whose rule ran (is in ran) must silence something; stale
// directives are reported. A directive for a rule that did not run is
// left alone: it may excuse a finding only a wider run makes. The
// returned slice holds the surviving diagnostics plus any stale-ignore
// findings.
func applyIgnores(diags []Diagnostic, directives []*ignoreDirective, ran map[string]bool) []Diagnostic {
	suppressed := make([]bool, len(diags))
	match := func(d *ignoreDirective, line int) bool {
		hit := false
		for i, diag := range diags {
			if !suppressed[i] && diag.File == d.file && diag.Line == line && diag.Rule == d.rule {
				suppressed[i] = true
				hit = true
			}
		}
		return hit
	}
	// Deterministic application order regardless of map/walk order above.
	sort.SliceStable(directives, func(i, j int) bool {
		if directives[i].file != directives[j].file {
			return directives[i].file < directives[j].file
		}
		return directives[i].line < directives[j].line
	})
	for _, d := range directives {
		if match(d, d.line) || match(d, d.line+1) {
			d.used = true
		}
	}
	var out []Diagnostic
	for i, diag := range diags {
		if !suppressed[i] {
			out = append(out, diag)
		}
	}
	for _, d := range directives {
		if !d.used && ran[d.rule] {
			out = append(out, Diagnostic{File: d.file, Line: d.line, Col: 1,
				Rule:    RuleStaleIgnore,
				Message: "tsvet:ignore " + d.rule + " suppresses nothing; delete the stale directive"})
		}
	}
	return out
}
