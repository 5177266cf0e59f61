// Command hprof runs only the analysis step (step 3 of the methodology):
// it profiles the application and prints the Table-1 style ordered kernel
// report — execution frequency, operation weight and eq. 1 total weight per
// basic block.
//
// Usage:
//
//	hprof -bench jpeg -top 8
//	hprof -src app.c -entry main_fn -args 42
package main

import (
	"flag"
	"fmt"

	"hybridpart"
	"hybridpart/internal/cliutil"
)

const tool = cliutil.Tool("hprof")

func main() {
	sel := cliutil.AddSelection(flag.CommandLine, true)
	top := flag.Int("top", 8, "number of kernels to print")
	flag.Parse()

	// Validate flags up front: one clear line instead of a deep failure.
	tool.Usage(sel.Check())
	if *top <= 0 {
		tool.Usagef("-top must be positive, got %d", *top)
	}

	w, err := sel.Load()
	tool.Fatal(err)
	eng, err := hybridpart.NewEngine()
	tool.Fatal(err)
	an, err := eng.Analyze(w)
	tool.Fatal(err)
	fmt.Printf("application: %s (%d basic blocks, %d candidate kernels)\n\n",
		w.Entry(), w.NumBlocks(), len(an.Kernels))
	fmt.Print(an.FormatTable(*top))
}
