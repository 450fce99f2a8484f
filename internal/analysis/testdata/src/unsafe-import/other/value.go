// Package other has a value.go too, in the wrong package: flagged.
package other

import "unsafe" // want:unsafe-import

// WordBytes is the size of a pointer.
const WordBytes = unsafe.Sizeof(uintptr(0))
