// Package storage stands in for the real internal/storage: its value.go is
// the one non-test file the unsafe-import rule lets import unsafe.
package storage

import "unsafe"

// CellBytes is the size of a two-word cell.
const CellBytes = unsafe.Sizeof([2]uintptr{})
