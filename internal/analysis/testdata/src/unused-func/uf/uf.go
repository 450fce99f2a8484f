// Package uffix exercises the unused-func rule: an unexported package-level
// function that no non-test file of the package references is flagged,
// whatever tests call it, and so is an unexported method that satisfies no
// interface; exported functions and methods and init are not the rule's
// business.
package uffix

func dead() int { return 1 } // want:unused-func

// Only the package's test file calls this: still dead in the build.
func testOnly() int { return 2 } // want:unused-func

// A function's calls to itself do not keep it alive.
func selfOnly(n int) int { // want:unused-func
	if n == 0 {
		return 0
	}
	return selfOnly(n - 1)
}

func calledByExported() int { return 3 }

// Exported is the package's API: not flagged, though nothing calls it.
func Exported() int { return calledByExported() + viaValue() + generic(4) }

// A reference as a value keeps the function alive.
var hook = helper

func helper() int { return 5 }

func viaValue() int { return hook() }

func generic[T int | int64](v T) T { return v }

type recv struct{}

// An unexported method nothing calls is as dead as a function.
func (recv) unusedMethod() {} // want:unused-func

// Only the package's test file calls this method.
func (*recv) testOnlyMethod() int { return 7 } // want:unused-func

// A non-test call keeps a method alive.
func (recv) calledMethod() int { return 8 }

// A method that satisfies an interface is called through it, never by name.
func (recv) size() int { return 9 }

type sizer interface{ size() int }

// Exported methods are unused-export's business.
func (recv) Unused() {}

// Sizes calls calledMethod and reaches size only through sizer.
func Sizes(s sizer) int { return s.size() + recv{}.calledMethod() }

func init() {}
