package experiment

import (
	"slices"
	"testing"

	"tscout/internal/model"
	"tscout/internal/tscout"
)

// TestTemplateFolds holds templateFolds to k-fold cross-validation by
// template, per subsystem: every template is tested by exactly one split,
// no split trains on a template it tests, a subsystem with one template is
// never tested, and one with fewer templates than folds is tested one
// template per split.
func TestTemplateFolds(t *testing.T) {
	const k = 5
	count := map[tscout.SubsystemID]int{
		tscout.SubsystemExecutionEngine: 12,
		tscout.SubsystemNetworking:      3,
		tscout.SubsystemLogSerializer:   1,
		tscout.SubsystemDiskWriter:      5,
	}
	var pool []model.Point
	for sub, n := range count {
		for tmpl := range n {
			for range 3 {
				pool = append(pool, model.Point{Sub: sub, Template: uint64(sub)<<8 | uint64(tmpl)})
			}
		}
	}
	splits := templateFolds(pool, k, 1)
	if len(splits) != k {
		t.Fatalf("%d splits, want %d", len(splits), k)
	}
	for sub, n := range count {
		tested := map[uint64]int{}
		for f, s := range splits {
			train, test := model.FilterSub(s.train, sub), model.FilterSub(s.test, sub)
			held := templates(test)
			for _, tmpl := range held {
				tested[tmpl]++
			}
			for _, p := range train {
				if slices.Contains(held, p.Template) {
					t.Fatalf("%v split %d trains on template %#x it tests", sub, f, p.Template)
				}
			}
			switch {
			case n == 1:
				if len(test) != 0 {
					t.Fatalf("%v has one template, split %d tests it", sub, f)
				}
			case n < k:
				want := 0
				if f < n {
					want = 1
				}
				if len(held) != want {
					t.Fatalf("%v (%d templates) split %d tests %d templates, want %d", sub, n, f, len(held), want)
				}
			}
			if n > 1 && len(train)+len(test) != 3*n {
				t.Fatalf("%v split %d: %d train + %d test points of %d", sub, f, len(train), len(test), 3*n)
			}
		}
		if n == 1 {
			continue
		}
		if len(tested) != n {
			t.Fatalf("%v: %d of %d templates tested", sub, len(tested), n)
		}
		for tmpl, c := range tested {
			if c != 1 {
				t.Fatalf("%v template %#x tested by %d splits", sub, tmpl, c)
			}
		}
	}
}
