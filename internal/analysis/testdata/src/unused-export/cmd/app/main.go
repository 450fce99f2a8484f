// Command app is the fixture's only non-test caller of lib.
package main

import (
	"fmt"

	"uefix/lib"
)

// filler is an interface of this package whose method takes a lib type.
type filler interface{ Fill(lib.Square) int }

func main() {
	var s lib.Stack[int]
	s.Push(lib.Used() + lib.Helper())
	var sh lib.Shape = lib.Square{Side: 2}
	var f filler = lib.Grid{}
	fmt.Println(lib.T{}, sh.Area(), f.Fill(lib.Square{Side: 3}))
}
