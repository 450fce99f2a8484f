// Package lib exercises unused-export. The fixture is a module of its own,
// so a run over its root sees every file that could call lib: cmd/app's
// non-test code counts, lib_test.go does not.
package lib

// TestOnly is called only from lib_test.go: dead in the build.
func TestOnly() int { return 1 } // want:unused-export

// Used is called from cmd/app.
func Used() int { return 2 }

// T's String satisfies fmt.Stringer: fmt calls it through the interface,
// which names the interface's method, never T's.
type T struct{}

func (T) String() string { return "t" }

// Shape is an interface the fixture declares; Square satisfies it and
// cmd/app calls Area only through a Shape.
type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Stack is generic: cmd/app calls Push on a Stack[int], whose method is an
// instantiation of this one.
type Stack[E any] struct{ items []E }

func (s *Stack[E]) Push(e E) { s.items = append(s.items, e) }

// Hook is a deliberate test hook, excused with a reason.
//
//tsvet:ignore unused-export fixture hook: lib_test.go drives it
func Hook() int { return 3 }

// Helper has a caller, so the directive excuses nothing.
func Helper() int { return 4 } //tsvet:ignore unused-export nothing to excuse // want:stale-ignore
