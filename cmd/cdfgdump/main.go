// Command cdfgdump prints the flattened CDFG of an application in Graphviz
// DOT form — either the whole control-flow graph or the data-flow graph of
// one basic block (as the fine- and coarse-grain mappers see it).
//
// Usage:
//
//	cdfgdump -bench ofdm > cfg.dot
//	cdfgdump -bench ofdm -block 26 > dfg26.dot
//	cdfgdump -src app.c -entry main_fn
package main

import (
	"flag"
	"os"

	"hybridpart"
	"hybridpart/internal/cliutil"
)

const tool = cliutil.Tool("cdfgdump")

func main() {
	sel := cliutil.AddSelection(flag.CommandLine, false)
	block := flag.Int("block", -1, "dump the DFG of this basic block instead of the CFG")
	flag.Parse()

	// Validate flags up front: one clear line instead of a deep failure.
	tool.Usage(sel.Check())
	if *block < -1 {
		tool.Usagef("-block must be a block number (or -1 for the CFG), got %d", *block)
	}

	var (
		app *hybridpart.App
		err error
	)
	if sel.Bench != "" {
		app, err = hybridpart.BenchmarkApp(sel.Bench)
	} else {
		var text []byte
		if text, err = os.ReadFile(sel.Src); err == nil {
			app, err = hybridpart.Compile(string(text), sel.Entry)
		}
	}
	tool.Fatal(err)
	if *block >= 0 {
		err = app.WriteDFGDot(os.Stdout, *block)
	} else {
		err = app.WriteCFGDot(os.Stdout)
	}
	tool.Fatal(err)
}
