// Package lib exercises unset-field. The fixture is a module of its own,
// so a run over its root sees every file that could set lib's fields:
// cmd/app's non-test code counts, lib_test.go does not. Each field of Opts
// is set by exactly one write form, so a form the reference walk stops
// seeing turns that field's line into a finding.
package lib

// Opts is what cmd/app configures.
type Opts struct {
	Keyed       int      // a keyed composite-literal element
	Assigned    int      // an assignment target
	OpAssigned  int      // an op-assignment target
	Incremented int      // an inc/dec target
	Addressed   int      // an & operand
	Counter     Counter  // the receiver of a pointer method
	Sub         Sub      // the outer selector of a written chain
	List        []int    // an index chain
	Ptr         *int     // a dereference chain
	Paren       int      // a parenthesized target
	TestOnly    int      // want:unset-field
	Never       int      // want:unset-field
	hidden      int      // unexported: not an option callers see
	Pair        Pair     // a keyed element; Pair.B is set only by Ptrs
	Ptrs        []*Pair  // a positional, elided &Pair literal
	_           struct{} // blank
}

// Pair's B is set only by a positional literal whose type is elided.
type Pair struct{ A, B int }

// Sub's field is the inner selector of cmd/app's o.Sub.Deep = 1.
type Sub struct{ Deep int }

// Counter is state its pointer method writes: that write counts.
type Counter struct{ Hits int }

// Bump writes Hits through its pointer receiver.
func (c *Counter) Bump() { c.Hits++ }

// Defaults fills in its own zero fields. Neither a value receiver nor a
// pointer receiver's local copy is a caller choosing a value.
type Defaults struct {
	Depth int // want:unset-field
	Width int // want:unset-field
}

func (d Defaults) withDefaults() Defaults {
	if d.Depth == 0 {
		d.Depth = 4
	}
	return d
}

func (d *Defaults) copied() Defaults {
	c := *d
	c.Width = 8
	return c
}

// Resolve applies both defaults.
func (d *Defaults) Resolve() Defaults { return d.copied().withDefaults() }

// Use reads every field so nothing here is dead for another reason.
func Use(o Opts) int {
	return o.hidden + o.Never + o.TestOnly + len(o.Ptrs)
}
