package storage

import (
	"fmt"
	"unsafe" // want:unsafe-import
)

// A second file of the same package is not the cell's home.
func Describe(p *int) string {
	return fmt.Sprint(uintptr(unsafe.Pointer(p)) != 0)
}
