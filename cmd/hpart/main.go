// Command hpart runs the complete partitioning methodology on a mini-C
// source file or on one of the built-in benchmarks, printing the Table-2/3
// style result.
//
// Usage:
//
//	hpart -bench ofdm -constraint 60000
//	hpart -bench jpeg -preset dsp-rich -trace
//	hpart -src app.c -entry main_fn -afpga 1500 -cgcs 2 -constraint 100000
//
// -preset starts from a registered platform variant; -afpga/-cgcs override
// individual fields of it when given explicitly. -trace streams the
// move-by-move partitioning trajectory to stderr. -json replaces the table
// with the full result as machine-readable JSON — the same wire shape the
// hservd service returns from POST /v1/partition. -trace-out file.json
// records the run as a span trace (move loop, sim.ScoreBatch batches,
// replays) in Chrome trace-event format, loadable in Perfetto.
//
// Feedback-directed partitioning: -objective sim makes the move loop
// optimize the simulated makespan (replaying the profiled trace through the
// co-simulator per candidate) instead of the closed-form t_total, and
// -rerank k keeps the closed-form loop but re-scores its top-k trajectories
// by simulation. -frames/-ports/-prefetch set the simulated operating
// point; with any of them the report also carries the chosen mapping's
// simulated makespan, so
//
//	hpart -bench ofdm -frames 8 -objective model
//	hpart -bench ofdm -frames 8 -objective sim
//
// compare what the model picks against what execution-level feedback picks. Custom sources are
// profiled by executing the entry function once; entry functions with
// scalar parameters receive the values passed via -args (comma-separated
// integers). Input arrays can be preset only for the built-in benchmarks;
// custom applications should initialize their inputs in source (or embed a
// generator loop).
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

const tool = cliutil.Tool("hpart")

func main() {
	sel := cliutil.AddSelection(flag.CommandLine, true)
	plat := cliutil.AddPlatform(flag.CommandLine)
	constraint := flag.Int64("constraint", 60000, "timing constraint in FPGA cycles")
	objective := cliutil.AddObjective(flag.CommandLine, `move-loop objective: "model" (closed-form t_total) or "sim" (simulated makespan)`)
	frames := flag.Int("frames", 0, "co-simulation frame count for the objective/report (0 = no simulation unless -objective sim)")
	ports := flag.Int("ports", 0, "co-simulation transfer-port width (0 = 1)")
	prefetch := flag.Bool("prefetch", false, "co-simulate with configuration prefetch")
	trace := flag.Bool("trace", false, "stream the move-by-move trajectory and scoring stats to stderr")
	jsonOut := flag.Bool("json", false, "emit the full result as JSON (the service wire format) instead of the table")
	pipelineN := flag.Int("pipeline-frames", 0, "if >0, also report frame pipelining over N frames")
	traceOut := flag.String("trace-out", "", "write the run's span trace to this file as Chrome trace-event JSON (Perfetto-loadable)")
	flag.Parse()

	// Validate every flag up front so bad input dies with one clear line
	// instead of an opaque failure deep in the flow.
	tool.Usage(sel.Check())
	tool.Usage(plat.Check())
	switch {
	case *constraint <= 0:
		tool.Usagef("-constraint must be positive, got %d", *constraint)
	case *pipelineN < 0:
		tool.Usagef("-pipeline-frames must be non-negative, got %d", *pipelineN)
	case *jsonOut && *pipelineN > 0:
		tool.Usagef("-json and -pipeline-frames are mutually exclusive (the pipeline report is table-only)")
	case *frames < 0:
		tool.Usagef("-frames must be non-negative, got %d", *frames)
	case *ports < 0:
		tool.Usagef("-ports must be non-negative, got %d", *ports)
	}
	objOpts, err := objective.Options()
	tool.Usage(err)

	engineOpts := append(plat.Options(), objOpts...)
	engineOpts = append(engineOpts, hybridpart.WithConstraint(*constraint),
		hybridpart.WithSimFrames(*frames), hybridpart.WithSimPorts(*ports),
		hybridpart.WithSimPrefetch(*prefetch))
	if *trace {
		engineOpts = append(engineOpts, hybridpart.WithObserver(func(ev hybridpart.Event) {
			if mv, ok := ev.(hybridpart.MoveEvent); ok {
				fmt.Fprintf(os.Stderr, "hpart: move %d: BB %d -> CGC (t_total %d, met %v)\n",
					mv.Seq, mv.Block, mv.TotalAfter, mv.Met)
			}
		}))
	}
	eng, err := hybridpart.NewEngine(engineOpts...)
	tool.Usage(err)

	w, err := sel.Load()
	tool.Fatal(err)

	if !*jsonOut {
		fmt.Printf("application: %s (%d basic blocks)\n", w.Entry(), w.NumBlocks())
	}
	ctx, runTrace := cliutil.TraceRun(context.Background(), *traceOut,
		"hpart", "hpart partition", obs.String("workload", w.Entry()))
	res, err := eng.Partition(ctx, w)
	if werr := runTrace.Close(); werr != nil {
		tool.Fatal(fmt.Errorf("-trace-out: %w", werr))
	}
	tool.Fatal(err)
	if *trace && res.SimStats != (hybridpart.SimScoreStats{}) {
		st := res.SimStats
		fmt.Fprintf(os.Stderr, "hpart: sim scoring: %d scored (%d replays), %d pruned, %d memo hits\n",
			st.Scored, st.Replays, st.Pruned, st.MemoHits)
	}
	if *jsonOut {
		// Machine-readable path: Result is the body the partitioning
		// service returns from POST /v1/partition.
		tool.Fatal(cliutil.WriteJSON(res))
	} else {
		fmt.Print(res.Format())
		if len(res.Unmappable) > 0 {
			fmt.Printf("Unmappable kernels:        %v\n", res.Unmappable)
		}
		if res.SimulatedBaselineCycles > 0 {
			fmt.Printf("Objective:                 %s\n", res.Objective)
			fmt.Printf("Simulated makespan:        %d (all-FPGA %d, speedup %.3f)\n",
				res.SimulatedCycles, res.SimulatedBaselineCycles, res.SimulatedSpeedup)
		}
		if *pipelineN > 0 {
			fmt.Printf("\nFrame pipelining over %d frames:\n%s", *pipelineN,
				res.Pipeline().Report(pipelineRows(*pipelineN)))
		}
	}
	if !res.Met {
		os.Exit(3)
	}
}

// pipelineRows returns the frame counts the pipelining report prints for
// -pipeline-frames n: the distinct positive values of 1, n/10 and n, in
// ascending order.
func pipelineRows(n int) []int {
	rows := []int{1}
	for _, v := range []int{n / 10, n} {
		if v > rows[len(rows)-1] {
			rows = append(rows, v)
		}
	}
	return rows
}
