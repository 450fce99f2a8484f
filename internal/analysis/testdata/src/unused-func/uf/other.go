package uffix

// A reference from another non-test file of the package counts.
func fromOtherFile() int { return 6 }

// Kept calls fromOtherFile.
func Kept() int { return fromOtherFile() }
