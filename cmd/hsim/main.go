// Command hsim co-simulates a partitioned application on the hybrid
// platform: it runs the partitioning methodology, then replays the profiled
// CDFG trace through the discrete-event platform model (internal/sim) —
// sequencer dispatch, temporal-partition swaps with optional configuration
// prefetch, list-scheduled CGC execution, shared-memory transfer slots and
// the two-stage frame pipeline — and prints the simulated makespan,
// per-fabric utilization, per-kernel timeline and the validation of the
// analytical model against the simulation.
//
// Usage:
//
//	hsim -bench ofdm
//	hsim -bench jpeg -frames 16 -prefetch -ports 2
//	hsim -src app.c -entry main_fn -constraint 100000 -json
//
// -preset starts from a registered platform variant; -afpga/-cgcs override
// individual fields of it when given explicitly. -constraint defaults to
// the benchmark's paper evaluation constraint (and is required for -src).
// -trace streams per-frame progress events to stderr. -json replaces the
// table with the service wire format of POST /v1/simulate. -trace-out
// file.json records the run as a span trace (partitioning, baseline and
// partitioned replays) in Chrome trace-event format, loadable in Perfetto.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hybridpart"
	"hybridpart/internal/cliutil"
	"hybridpart/internal/obs"
)

const tool = cliutil.Tool("hsim")

func main() {
	sel := cliutil.AddSelection(flag.CommandLine, true)
	plat := cliutil.AddPlatform(flag.CommandLine)
	constraint := flag.Int64("constraint", 0, "timing constraint in FPGA cycles (0 = the benchmark's paper default)")
	frames := flag.Int("frames", 1, "application frames to replay (the frame pipeline overlaps the fabrics)")
	ports := flag.Int("ports", 1, "fabric-to-fabric transfer ports (the model assumes 1)")
	prefetch := flag.Bool("prefetch", false, "overlap configuration loads with data-path execution")
	objective := cliutil.AddObjective(flag.CommandLine, `move-loop objective of the simulated partitioning: "model" or "sim"`)
	trace := flag.Bool("trace", false, "stream per-frame simulation events to stderr")
	jsonOut := flag.Bool("json", false, "emit the report as JSON (the service wire format) instead of the table")
	traceOut := flag.String("trace-out", "", "write the run's span trace to this file as Chrome trace-event JSON (Perfetto-loadable)")
	flag.Parse()

	// Validate every flag up front so bad input dies with one clear line
	// instead of an opaque failure deep in the flow.
	tool.Usage(sel.Check())
	tool.Usage(plat.Check())
	switch {
	case *constraint < 0:
		tool.Usagef("-constraint must be non-negative (0 selects the benchmark's paper default), got %d", *constraint)
	case *constraint == 0 && sel.Src != "":
		tool.Usagef("need -constraint with -src (no paper default for custom sources)")
	case *frames <= 0:
		tool.Usagef("-frames must be positive, got %d", *frames)
	case *ports <= 0:
		tool.Usagef("-ports must be positive, got %d", *ports)
	}
	objOpts, err := objective.Options()
	tool.Usage(err)
	if *constraint == 0 {
		*constraint = hybridpart.DefaultConstraint(sel.Bench)
	}

	// The knobs go on the engine (not just this Simulate call) so a
	// simulated objective or re-rank scores candidates at the same operating
	// point the report replays.
	engineOpts := append(plat.Options(), objOpts...)
	engineOpts = append(engineOpts, hybridpart.WithConstraint(*constraint),
		hybridpart.WithSimFrames(*frames), hybridpart.WithSimPorts(*ports),
		hybridpart.WithSimPrefetch(*prefetch))
	if *trace {
		engineOpts = append(engineOpts, hybridpart.WithObserver(func(ev hybridpart.Event) {
			if se, ok := ev.(hybridpart.SimEvent); ok {
				fmt.Fprintf(os.Stderr, "hsim: %s frame %d/%d done at cycle %d\n",
					se.Stage, se.Frame, se.Frames, se.Cycles)
			}
		}))
	}
	eng, err := hybridpart.NewEngine(engineOpts...)
	tool.Usage(err)

	w, err := sel.Load()
	tool.Fatal(err)

	ctx, runTrace := cliutil.TraceRun(context.Background(), *traceOut,
		"hsim", "hsim simulate", obs.String("workload", w.Entry()))
	rep, err := eng.Simulate(ctx, w)
	if werr := runTrace.Close(); werr != nil {
		tool.Fatal(fmt.Errorf("-trace-out: %w", werr))
	}
	tool.Fatal(err)
	if *jsonOut {
		tool.Fatal(cliutil.WriteJSON(rep))
		return
	}
	fmt.Printf("application: %s (%d basic blocks, constraint %d)\n\n", w.Entry(), w.NumBlocks(), *constraint)
	fmt.Print(rep.Format())
}
