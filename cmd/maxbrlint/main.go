// Command maxbrlint runs the project's invariant analyzers (internal/lint)
// over every package of ./... below the current directory:
//
//	go run ./cmd/maxbrlint ./...
//
// It prints one line per diagnostic that survives the //maxbr:ignore
// filter and exits with status 1 when there is any, so `make lint` and CI
// gate on it directly.
package main

import (
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	if len(os.Args) > 2 || len(os.Args) == 2 && os.Args[1] != "./..." {
		fmt.Fprintln(os.Stderr, "usage: maxbrlint [./...]")
		os.Exit(2)
	}
	diags, err := lint.Run(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "maxbrlint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Printf("%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "maxbrlint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}
