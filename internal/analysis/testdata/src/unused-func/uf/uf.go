// Package uffix exercises the unused-func rule: an unexported package-level
// function that no non-test file of the package references is flagged,
// whatever tests call it; exported functions, methods and init are not the
// rule's business.
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

// Methods are not package-level functions.
func (recv) unusedMethod() {}

func init() {}
