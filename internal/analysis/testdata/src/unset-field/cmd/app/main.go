// Command app is the fixture's only non-test writer of lib's fields, one
// write form per line.
package main

import (
	"fmt"

	"usfix/lib"
)

func main() {
	o := lib.Opts{Keyed: 1, Pair: lib.Pair{A: 1}, Ptrs: []*lib.Pair{{2, 3}}}
	o.Assigned = 2
	o.OpAssigned += 3
	o.Incremented++
	p := &o.Addressed
	o.Counter.Bump()
	o.Sub.Deep = 4
	o.List[0] = 5
	*o.Ptr = 6
	(o.Paren) = 7
	var d lib.Defaults
	// Printing o reads all of its fields, so unread-field finds none.
	fmt.Println(lib.Use(o), *p, d.Resolve(), o)
}
