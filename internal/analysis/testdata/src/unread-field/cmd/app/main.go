// Command app is the fixture's only non-test caller of lib, and the only
// reader of State.ByMain.
package main

import (
	"fmt"

	"urfix/lib"
)

// report is declared in package main, outside the rule's scope: its
// unread field is no finding.
type report struct{ lines int }

func main() {
	sink := &lib.Sink{}
	s := lib.New(sink, new(int))
	s.Record(3)
	var r report
	r.lines = s.Sum()
	fmt.Println(s.ByMain, sink.Value(), s.Describe(), s.Empty())
}
