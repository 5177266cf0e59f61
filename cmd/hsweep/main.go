// Command hsweep runs the design-space-exploration engine: it expands a
// benchmarks × presets × A_FPGA × CGC-count × constraint grid, partitions
// every cell on a bounded worker pool against one shared compiled+profiled
// application per benchmark, and reports the grid plus the speedup-vs-area
// Pareto front. The paper's Tables 2–3 are the special case
//
//	hsweep -bench ofdm -areas 1500,5000 -cgcs 2,3
//	hsweep -bench jpeg -areas 1500,5000 -cgcs 2,3
//
// and larger grids explore beyond them:
//
//	hsweep -bench ofdm -areas 1500,5000 -cgcs 1,2,4 -workers 8
//	hsweep -bench ofdm,jpeg -presets default,dsp-rich,lut-only -format csv
//
// The co-simulation axes chart executed reality next to the closed form:
// -frames/-ports/-prefetch set the simulated operating point per cell and
// -objectives compares the move loops themselves (the closed-form "model"
// objective against the simulation-scored "sim" objective), adding
// simulated-makespan and simulated-speedup columns to every output format:
//
//	hsweep -bench ofdm -frames 1,8 -objectives model,sim
//
// Constraints default to the paper's per-benchmark values (OFDM 60000,
// JPEG 21000000 FPGA cycles). -format json/csv emits machine-readable
// output (to -o when given); -list-presets prints the platform registry;
// -progress streams per-cell completion lines to stderr as the grid
// evaluates; -trace-out file.json records the sweep as a span trace (one
// move loop and scoring tree per cell, cells overlapping across the worker
// pool) in Chrome trace-event format, loadable in Perfetto. Ctrl-C cancels the sweep cleanly between cells: the cells
// already evaluated are still emitted — marked partial ("partial": true in
// JSON, a trailing "# partial: ..." comment line in CSV, a PARTIAL footer
// in the table) — and the exit status is 130, so a truncated grid is never
// mistaken for full coverage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"hybridpart"
	"hybridpart/internal/cliutil"
	"hybridpart/internal/obs"
)

func main() {
	bench := flag.String("bench", "", `comma-separated benchmarks ("ofdm", "jpeg")`)
	areas := flag.String("areas", "", "comma-separated A_FPGA values (empty = preset default)")
	cgcs := flag.String("cgcs", "", "comma-separated CGC counts (empty = preset default)")
	regions := flag.String("regions", "", "comma-separated reconfigurable-region counts (empty = preset default, 1 = monolithic)")
	constraints := flag.String("constraints", "", "comma-separated timing constraints in FPGA cycles (empty = paper defaults)")
	presets := flag.String("presets", "", "comma-separated platform presets (see -list-presets)")
	frames := flag.String("frames", "", "comma-separated co-simulation frame counts (any sim axis adds simulated-speedup columns)")
	ports := flag.String("ports", "", "comma-separated transfer-port widths")
	prefetch := flag.String("prefetch", "", `comma-separated prefetch settings ("false,true")`)
	objectives := flag.String("objectives", "", `comma-separated move-loop objectives ("model", "sim")`)
	workers := flag.Int("workers", 0, "evaluation worker pool size (0 = GOMAXPROCS)")
	seed := flag.Uint("seed", 1, "benchmark input-vector seed")
	format := flag.String("format", "table", `output format: "table", "json" or "csv"`)
	out := flag.String("o", "", "write json/csv output to this file instead of stdout")
	listPresets := flag.Bool("list-presets", false, "list registered platform presets and exit")
	progress := flag.Bool("progress", false, "stream per-cell completion lines to stderr")
	traceOut := flag.String("trace-out", "", "write the sweep's span trace to this file as Chrome trace-event JSON (Perfetto-loadable)")
	flag.Parse()

	if *listPresets {
		for _, name := range hybridpart.PlatformPresets() {
			fmt.Println(name)
		}
		return
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "hsweep: need -bench (e.g. -bench ofdm or -bench ofdm,jpeg)")
		os.Exit(2)
	}

	spec := hybridpart.SweepSpec{
		Benchmarks: splitList(*bench),
		Presets:    splitList(*presets),
		Seed:       uint32(*seed),
		Workers:    *workers,
	}
	var err error
	if spec.Areas, err = parseList(*areas, strconv.Atoi); err != nil {
		fatal("-areas", err)
	}
	if spec.CGCs, err = parseList(*cgcs, strconv.Atoi); err != nil {
		fatal("-cgcs", err)
	}
	if spec.Regions, err = parseList(*regions, strconv.Atoi); err != nil {
		fatal("-regions", err)
	}
	if spec.Constraints, err = parseList(*constraints, parseInt64); err != nil {
		fatal("-constraints", err)
	}
	if spec.Frames, err = parseList(*frames, strconv.Atoi); err != nil {
		fatal("-frames", err)
	}
	if spec.Ports, err = parseList(*ports, strconv.Atoi); err != nil {
		fatal("-ports", err)
	}
	if spec.Prefetch, err = parseList(*prefetch, strconv.ParseBool); err != nil {
		fatal("-prefetch", err)
	}
	spec.Objectives = splitList(*objectives)
	for _, o := range spec.Objectives {
		if _, err := hybridpart.ParseObjective(o); err != nil {
			fatal("-objectives", err)
		}
	}
	switch *format {
	case "table", "json", "csv":
	default:
		fatal("-format", fmt.Errorf(`unknown format %q (want "table", "json" or "csv")`, *format))
	}

	// Ctrl-C cancels the context; the engine abandons queued cells,
	// interrupts in-flight move loops and returns context.Canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var engineOpts []hybridpart.Option
	if *progress {
		engineOpts = append(engineOpts, hybridpart.WithObserver(func(ev hybridpart.Event) {
			ce, ok := ev.(hybridpart.CellEvent)
			if !ok {
				return
			}
			o := ce.Outcome
			if o.Failed() {
				fmt.Fprintf(os.Stderr, "hsweep: [%d/%d] %s afpga=%d cgcs=%d: error: %s\n",
					ce.Done, ce.Total, o.Benchmark, o.AreaUsed(), o.CGCsUsed(), o.Err)
				return
			}
			if o.Simulated {
				fmt.Fprintf(os.Stderr, "hsweep: [%d/%d] %s afpga=%d cgcs=%d final=%d speedup=%.3f met=%v obj=%s frames=%d sim=%d simspeedup=%.3f\n",
					ce.Done, ce.Total, o.Benchmark, o.AreaUsed(), o.CGCsUsed(), o.FinalCycles, o.Speedup, o.Met,
					o.EffectiveObjective, o.EffectiveFrames, o.SimCycles, o.SimSpeedup)
				return
			}
			fmt.Fprintf(os.Stderr, "hsweep: [%d/%d] %s afpga=%d cgcs=%d final=%d speedup=%.3f met=%v\n",
				ce.Done, ce.Total, o.Benchmark, o.AreaUsed(), o.CGCsUsed(), o.FinalCycles, o.Speedup, o.Met)
		}))
	}
	eng, err := hybridpart.NewEngine(engineOpts...)
	if err != nil {
		fatal("engine", err)
	}

	// A cancelled sweep still yields the cells that completed: emit them,
	// marked partial, and exit non-zero so callers never mistake a truncated
	// grid for full coverage. A cancelled sweep's partial trace is written
	// the same way.
	ctx, runTrace := cliutil.TraceRun(ctx, *traceOut, "hsweep", "hsweep sweep",
		obs.String("bench", *bench))
	rs, err := eng.Sweep(ctx, spec)
	if werr := runTrace.Close(); werr != nil {
		fatal("-trace-out", werr)
	}
	cancelled := errors.Is(err, context.Canceled)
	if err != nil && !cancelled {
		fatal("sweep", err)
	}
	if cancelled && (rs == nil || len(rs.Outcomes) == 0) {
		fmt.Fprintln(os.Stderr, "hsweep: interrupted before any cell completed")
		os.Exit(130)
	}

	var w io.Writer = os.Stdout
	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			fatal("-o", err)
		}
		w = f
	}
	total := spec.NumPoints()
	switch *format {
	case "table":
		_, err = fmt.Fprint(w, rs.FormatSummary())
		if err == nil && rs.Partial {
			_, err = fmt.Fprintf(w, "\nPARTIAL: sweep cancelled after %d of %d cells\n", len(rs.Outcomes), total)
		}
	case "json":
		// ResultSet.Partial lands in the JSON body itself ("partial": true).
		err = rs.WriteJSON(w)
	case "csv":
		err = rs.WriteCSV(w)
		if err == nil && rs.Partial {
			_, err = fmt.Fprintf(w, "# partial: sweep cancelled after %d of %d cells\n", len(rs.Outcomes), total)
		}
	}
	if err != nil {
		fatal("emit", err)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			fatal("-o", err)
		}
	}

	failed := rs.Failed()
	for _, o := range failed {
		fmt.Fprintf(os.Stderr, "hsweep: point %d (%s afpga=%d cgcs=%d): %s\n",
			o.Index, o.Benchmark, o.AFPGA, o.NumCGCs, o.Err)
	}
	if cancelled {
		fmt.Fprintf(os.Stderr, "hsweep: interrupted — emitted partial results (%d of %d cells)\n",
			len(rs.Outcomes), total)
		os.Exit(130)
	}
	if len(failed) > 0 {
		os.Exit(1)
	}
}

func fatal(what string, err error) {
	fmt.Fprintf(os.Stderr, "hsweep: %s: %v\n", what, err)
	os.Exit(1)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseList parses every element of a comma-separated list with parse.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, p := range splitList(s) {
		v, err := parse(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInt64(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }
