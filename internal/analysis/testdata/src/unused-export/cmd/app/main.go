// Command app is the fixture's only non-test caller of lib.
package main

import (
	"fmt"

	"uefix/lib"
)

func main() {
	var s lib.Stack[int]
	s.Push(lib.Used() + lib.Helper())
	var sh lib.Shape = lib.Square{Side: 2}
	fmt.Println(lib.T{}, sh.Area())
}
