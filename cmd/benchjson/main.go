// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON report on stdout, so CI can track the performance
// trajectory across commits. It parses every benchmark result line and, when
// the BenchmarkSweepEngine serial/parallel pair is present, derives the
// sweep engine's headline numbers: cells evaluated per second on each path
// and the parallel-over-serial speedup.
//
// Usage:
//
//	go test -bench Sweep -run '^$' -benchtime 2x . | benchjson -cells 6 > BENCH_sweep.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// benchResult is one parsed `go test -bench` line. Metrics carries any
// extra "<value> <unit>" pairs the benchmark reported (b.ReportMetric), in
// input order.
type benchResult struct {
	Name    string   `json:"name"`
	Iter    int64    `json:"iterations"`
	NsOp    float64  `json:"ns_per_op"`
	Metrics []metric `json:"metrics,omitempty"`
}

// metric is one extra benchmark metric column.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// sweepReport is the derived sweep-engine summary.
type sweepReport struct {
	GridCells           int     `json:"grid_cells"`
	SerialNsPerOp       float64 `json:"serial_ns_per_op"`
	ParallelNsPerOp     float64 `json:"parallel_ns_per_op"`
	SerialCellsPerSec   float64 `json:"serial_cells_per_sec"`
	ParallelCellsPerSec float64 `json:"parallel_cells_per_sec"`
	Speedup             float64 `json:"speedup_over_serial"`
}

// simBench is one co-simulator benchmark's derived summary.
type simBench struct {
	NsPerOp         float64 `json:"ns_per_op"`
	SimCyclesPerSec float64 `json:"simcycles_per_sec,omitempty"`
}

// objectiveBench is one move-loop objective's derived summary: what the
// mode costs in wall time and what it buys in simulated makespan/speedup.
type objectiveBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	SimMakespan float64 `json:"sim_makespan,omitempty"`
	SimSpeedup  float64 `json:"sim_speedup,omitempty"`
	Moves       float64 `json:"moves,omitempty"`
}

// regionsBench is one BenchmarkRegions sub-benchmark's derived summary:
// the simulated makespan and speedup of a region/prefetch configuration on
// the reconfiguration-bound operating point.
type regionsBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	SimMakespan float64 `json:"sim_makespan,omitempty"`
	SimSpeedup  float64 `json:"sim_speedup,omitempty"`
}

// objectiveScoringBench is one BenchmarkObjectiveScoring sub-benchmark's
// derived summary: wall time and allocations for a scoring path, its
// branch-and-bound counters, and its speedup over the serial baseline.
type objectiveScoringBench struct {
	NsPerOp           float64 `json:"ns_per_op"`
	AllocsPerOp       float64 `json:"allocs_per_op,omitempty"`
	Pruned            float64 `json:"pruned"`
	Scored            float64 `json:"scored,omitempty"`
	SimMakespan       float64 `json:"sim_makespan,omitempty"`
	SpeedupOverSerial float64 `json:"speedup_over_serial,omitempty"`
}

// traceBench is the BenchmarkTraceOverhead summary: the modelled cost of
// the instrumentation with tracing disabled (the CI-gated number) and the
// measured slowdown with tracing fully enabled.
type traceBench struct {
	OverheadPct     float64 `json:"overhead_pct"`
	EnabledPct      float64 `json:"enabled_pct"`
	SpansPerOp      float64 `json:"spans_per_op,omitempty"`
	NilStartNs      float64 `json:"nil_start_ns,omitempty"`
	DisabledNsPerOp float64 `json:"disabled_ns_per_op,omitempty"`
}

// telemetryBench is the BenchmarkTelemetryOverhead summary: the modelled
// per-request cost of the flight recorder (stage-histogram fold plus the
// amortized runtime sample; the CI-gated number) and its raw components.
type telemetryBench struct {
	OverheadPct     float64 `json:"overhead_pct"`
	ObserveNs       float64 `json:"observe_ns,omitempty"`
	SampleNs        float64 `json:"sample_ns,omitempty"`
	DisabledNsPerOp float64 `json:"disabled_ns_per_op,omitempty"`
}

type report struct {
	Benchmarks []benchResult `json:"benchmarks"`
	Sweep      *sweepReport  `json:"sweep,omitempty"`
	// Sim summarizes BenchmarkSimulate sub-benchmarks by benchmark name
	// (JSON object keys are emitted sorted, so the report is deterministic).
	Sim map[string]simBench `json:"sim,omitempty"`
	// Objective summarizes BenchmarkObjective sub-benchmarks by mode
	// ("model", "sim", "rerank3").
	Objective map[string]objectiveBench `json:"objective,omitempty"`
	// ObjectiveScoring summarizes BenchmarkObjectiveScoring sub-benchmarks
	// by scoring path ("serial", "batch"), batch with its speedup over the
	// full-replay serial baseline.
	ObjectiveScoring map[string]objectiveScoringBench `json:"objective_scoring,omitempty"`
	// Regions summarizes BenchmarkRegions sub-benchmarks by configuration
	// ("r1", "r1_prefetch", "r2"); CI gates r2.sim_makespan strictly below
	// r1_prefetch.sim_makespan.
	Regions map[string]regionsBench `json:"regions,omitempty"`
	// Trace summarizes BenchmarkTraceOverhead (CI gates overhead_pct < 2).
	Trace *traceBench `json:"trace,omitempty"`
	// Telemetry summarizes BenchmarkTelemetryOverhead (CI gates
	// overhead_pct < 2).
	Telemetry *telemetryBench `json:"telemetry,omitempty"`
}

func main() {
	cells := flag.Int("cells", 6, "grid cells per BenchmarkSweepEngine iteration (areas x cgc-counts)")
	flag.Parse()

	var rep report
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		r, ok := parseBenchLine(sc.Text())
		if ok {
			rep.Benchmarks = append(rep.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	var serial, parallel float64
	for _, b := range rep.Benchmarks {
		switch {
		case strings.Contains(b.Name, "SweepEngine/serial-recompile"):
			serial = b.NsOp
		case strings.Contains(b.Name, "SweepEngine/shared-parallel"):
			parallel = b.NsOp
		}
		if i := strings.Index(b.Name, "Simulate/"); i >= 0 {
			if rep.Sim == nil {
				rep.Sim = map[string]simBench{}
			}
			row := simBench{NsPerOp: b.NsOp}
			for _, m := range b.Metrics {
				if m.Name == "simcycles/s" {
					row.SimCyclesPerSec = m.Value
				}
			}
			rep.Sim[b.Name[i+len("Simulate/"):]] = row
		}
		if i := strings.Index(b.Name, "ObjectiveScoring/"); i >= 0 {
			if rep.ObjectiveScoring == nil {
				rep.ObjectiveScoring = map[string]objectiveScoringBench{}
			}
			row := objectiveScoringBench{NsPerOp: b.NsOp}
			for _, m := range b.Metrics {
				switch m.Name {
				case "allocs/op":
					row.AllocsPerOp = m.Value
				case "pruned":
					row.Pruned = m.Value
				case "scored":
					row.Scored = m.Value
				case "sim-makespan":
					row.SimMakespan = m.Value
				}
			}
			rep.ObjectiveScoring[b.Name[i+len("ObjectiveScoring/"):]] = row
		}
		if b.Name == "BenchmarkTraceOverhead" {
			row := &traceBench{}
			for _, m := range b.Metrics {
				switch m.Name {
				case "overhead_pct":
					row.OverheadPct = m.Value
				case "enabled-pct":
					row.EnabledPct = m.Value
				case "spans/op":
					row.SpansPerOp = m.Value
				case "nilstart-ns":
					row.NilStartNs = m.Value
				case "disabled-ns/op":
					row.DisabledNsPerOp = m.Value
				}
			}
			rep.Trace = row
		}
		if b.Name == "BenchmarkTelemetryOverhead" {
			row := &telemetryBench{}
			for _, m := range b.Metrics {
				switch m.Name {
				case "overhead_pct":
					row.OverheadPct = m.Value
				case "observe-ns":
					row.ObserveNs = m.Value
				case "sample-ns":
					row.SampleNs = m.Value
				case "disabled-ns/op":
					row.DisabledNsPerOp = m.Value
				}
			}
			rep.Telemetry = row
		}
		if i := strings.Index(b.Name, "Regions/"); i >= 0 {
			if rep.Regions == nil {
				rep.Regions = map[string]regionsBench{}
			}
			row := regionsBench{NsPerOp: b.NsOp}
			for _, m := range b.Metrics {
				switch m.Name {
				case "sim-makespan":
					row.SimMakespan = m.Value
				case "sim-speedup":
					row.SimSpeedup = m.Value
				}
			}
			rep.Regions[b.Name[i+len("Regions/"):]] = row
		}
		if i := strings.Index(b.Name, "Objective/"); i >= 0 {
			if rep.Objective == nil {
				rep.Objective = map[string]objectiveBench{}
			}
			row := objectiveBench{NsPerOp: b.NsOp}
			for _, m := range b.Metrics {
				switch m.Name {
				case "sim-makespan":
					row.SimMakespan = m.Value
				case "sim-speedup":
					row.SimSpeedup = m.Value
				case "moves":
					row.Moves = m.Value
				}
			}
			rep.Objective[b.Name[i+len("Objective/"):]] = row
		}
	}
	if base, ok := rep.ObjectiveScoring["serial"]; ok && base.NsPerOp > 0 {
		if row, ok := rep.ObjectiveScoring["batch"]; ok {
			row.SpeedupOverSerial = base.NsPerOp / row.NsPerOp
			rep.ObjectiveScoring["batch"] = row
		}
	}
	if serial > 0 && parallel > 0 {
		rep.Sweep = &sweepReport{
			GridCells:           *cells,
			SerialNsPerOp:       serial,
			ParallelNsPerOp:     parallel,
			SerialCellsPerSec:   float64(*cells) * 1e9 / serial,
			ParallelCellsPerSec: float64(*cells) * 1e9 / parallel,
			Speedup:             serial / parallel,
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseBenchLine parses lines of the shape
//
//	BenchmarkName-8   	      12	  98765432 ns/op	  extra metrics...
//
// returning ok=false for everything else (headers, PASS/ok lines, metrics).
func parseBenchLine(line string) (benchResult, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return benchResult{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchResult{}, false
	}
	iter, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	// Find the "<value> ns/op" pair; go test always emits it first but
	// scanning keeps us robust to extra columns — which are themselves
	// collected as metrics (b.ReportMetric output).
	for i := 2; i+1 < len(fields); i++ {
		if fields[i+1] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		// Strip the GOMAXPROCS suffix ("-8") from the name.
		name := fields[0]
		if j := strings.LastIndex(name, "-"); j > 0 {
			if _, err := strconv.Atoi(name[j+1:]); err == nil {
				name = name[:j]
			}
		}
		res := benchResult{Name: name, Iter: iter, NsOp: ns}
		for j := i + 2; j+1 < len(fields); j += 2 {
			v, err := strconv.ParseFloat(fields[j], 64)
			if err != nil {
				break
			}
			res.Metrics = append(res.Metrics, metric{Name: fields[j+1], Value: v})
		}
		return res, true
	}
	return benchResult{}, false
}
