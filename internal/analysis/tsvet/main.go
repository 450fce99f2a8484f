// Command tsvet runs the repo's typed static-analysis suite (see
// internal/analysis) over one or more source trees; scripts/check.sh lint
// (and so `make lint`) runs it over the repo root.
//
// Usage: tsvet [-json] [dir ...]   (defaults to ".")
//
// Exit status: 0 clean, 1 findings, 2 driver failure.
package main

import (
	"os"

	"tscout/internal/analysis"
)

func main() {
	os.Exit(analysis.Main(os.Stdout, os.Args[1:]))
}
