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
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hybridpart"
	"hybridpart/internal/cliutil"
	"hybridpart/internal/obs"
	"hybridpart/internal/server"
)

func main() {
	bench := flag.String("bench", "", fmt.Sprintf("built-in benchmark %v", hybridpart.Benchmarks()))
	src := flag.String("src", "", "mini-C source file (alternative to -bench)")
	entry := flag.String("entry", "main_fn", "entry function for -src")
	args := flag.String("args", "", "comma-separated scalar arguments for the entry function")
	seed := flag.Uint("seed", 1, "benchmark input seed")
	preset := flag.String("preset", "", "platform preset to start from (see hsweep -list-presets)")
	afpga := flag.Int("afpga", 1500, "usable fine-grain area A_FPGA")
	cgcs := flag.Int("cgcs", 2, "number of 2x2 CGCs in the data-path")
	regions := flag.Int("regions", 1, "independently reconfigurable fine-grain regions (1 = monolithic context)")
	constraint := flag.Int64("constraint", 60000, "timing constraint in FPGA cycles")
	objective := flag.String("objective", "model", `move-loop objective: "model" (closed-form t_total) or "sim" (simulated makespan)`)
	rerank := flag.Int("rerank", 0, "re-score the top-k model trajectories by simulation (0 = off, -1 = all)")
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
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case *bench == "" && *src == "":
		fail("need -bench or -src")
	case *bench != "" && *src != "":
		fail("-bench and -src are mutually exclusive")
	case *bench != "" && !hybridpart.IsBenchmark(*bench):
		fail(fmt.Sprintf("unknown benchmark %q (have %v)", *bench, hybridpart.Benchmarks()))
	case *afpga <= 0:
		fail(fmt.Sprintf("-afpga must be positive, got %d", *afpga))
	case *cgcs <= 0:
		fail(fmt.Sprintf("-cgcs must be positive, got %d", *cgcs))
	case *regions <= 0:
		fail(fmt.Sprintf("-regions must be positive, got %d", *regions))
	case *constraint <= 0:
		fail(fmt.Sprintf("-constraint must be positive, got %d", *constraint))
	case *pipelineN < 0:
		fail(fmt.Sprintf("-pipeline-frames must be non-negative, got %d", *pipelineN))
	case *jsonOut && *pipelineN > 0:
		fail("-json and -pipeline-frames are mutually exclusive (the pipeline report is table-only)")
	case *frames < 0:
		fail(fmt.Sprintf("-frames must be non-negative, got %d", *frames))
	case *ports < 0:
		fail(fmt.Sprintf("-ports must be non-negative, got %d", *ports))
	case *rerank < -1:
		fail(fmt.Sprintf("-rerank must be -1 (all), 0 (off) or positive, got %d", *rerank))
	}
	obj, err := hybridpart.ParseObjective(*objective)
	if err != nil {
		fail(err.Error())
	}
	if obj == hybridpart.ObjectiveSimulated && *rerank != 0 {
		fail("-objective sim and -rerank are mutually exclusive (rerank already ends with a simulated selection)")
	}

	// Engine configuration: the preset (if any) lays down the platform;
	// explicitly-given flags override its individual fields.
	var engineOpts []hybridpart.Option
	if *preset != "" {
		engineOpts = append(engineOpts, hybridpart.WithPlatform(*preset))
	}
	if *preset == "" || set["afpga"] {
		engineOpts = append(engineOpts, hybridpart.WithArea(*afpga))
	}
	if *preset == "" || set["cgcs"] {
		engineOpts = append(engineOpts, hybridpart.WithCGCs(*cgcs))
	}
	if *preset == "" || set["regions"] {
		engineOpts = append(engineOpts, hybridpart.WithRegions(*regions))
	}
	engineOpts = append(engineOpts, hybridpart.WithConstraint(*constraint),
		hybridpart.WithObjective(obj), hybridpart.WithRerank(*rerank),
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
	if err != nil {
		fail(err.Error())
	}

	var w *hybridpart.Workload
	if *bench != "" {
		w, err = hybridpart.BenchmarkWorkload(*bench, uint32(*seed))
	} else {
		w, err = cliutil.SourceWorkload(*src, *entry, *args)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpart: %v\n", err)
		os.Exit(1)
	}

	if !*jsonOut {
		fmt.Printf("application: %s (%d basic blocks)\n", w.Entry(), w.NumBlocks())
	}
	ctx, runTrace := cliutil.TraceRun(context.Background(), *traceOut,
		"hpart", "hpart partition", obs.String("workload", w.Entry()))
	res, err := eng.Partition(ctx, w)
	if werr := runTrace.Close(); werr != nil {
		fmt.Fprintf(os.Stderr, "hpart: -trace-out: %v\n", werr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpart: %v\n", err)
		os.Exit(1)
	}
	if *trace && res.SimStats != (hybridpart.SimScoreStats{}) {
		st := res.SimStats
		fmt.Fprintf(os.Stderr, "hpart: sim scoring: %d scored (%d replays), %d pruned, %d memo hits\n",
			st.Scored, st.Replays, st.Pruned, st.MemoHits)
	}
	if *jsonOut {
		// Machine-readable path: the same wire type the partitioning
		// service returns from POST /v1/partition, indented for terminals.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(server.NewResultJSON(res)); err != nil {
			fmt.Fprintf(os.Stderr, "hpart: %v\n", err)
			os.Exit(1)
		}
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
				res.Pipeline().Report([]int{1, *pipelineN / 10, *pipelineN}))
		}
	}
	if !res.Met {
		os.Exit(3)
	}
}

func fail(msg string) {
	fmt.Fprintf(os.Stderr, "hpart: %s\n", msg)
	os.Exit(2)
}
