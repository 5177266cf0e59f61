// Command perfbench is the repository benchmark: three closed-loop,
// single-client workloads that call the public entry points in-process
// (Engine.Partition and Server.ServeHTTP, no sockets), with a correctness
// gate on every op and a traced pass that breaks the work down by layer.
//
//	perfbench --workload ofdm-sim --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A readable
// summary goes to standard error. See README.md for the workloads, the
// layer map and the design rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last instance is the one measured.
const setupReps = 5

// minOps is the fewest successful ops an end-to-end window reports on, so
// p90 has minTail samples beyond it. The window runs past --seconds (up to
// maxStretch times) until it has them.
const (
	minOps     = 100
	maxStretch = 3
)

// traceSlices is how many untraced/traced slice pairs the traced pass
// alternates between.
const traceSlices = 4

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// window is one timed closed-loop stretch.
type window struct {
	t      tally
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
}

// add folds another window's accounting into w.
func (w *window) add(o window) {
	w.t.attempted += o.t.attempted
	w.t.failed += o.t.failed
	w.t.latMS = append(w.t.latMS, o.t.latMS...)
	w.wall += o.wall
	w.cpu += o.cpu
	w.allocs += o.allocs
}

func (w *window) opsPerSec() float64 { return float64(w.t.nOps()) / w.wall.Seconds() }

// calibSlice is how long the timed window runs between calibration bursts.
const calibSlice = time.Second

// measure runs inst's ops back to back for d (longer if needed to reach
// least ops) and accounts wall time, CPU time and heap allocations across
// the window only. The window is cut into calibSlice slices with a
// calibration burst before each; the bursts fall outside the accounting.
func measure(inst instance, d time.Duration, least int, tr *tracer, cal *calibration) window {
	var w window
	logged := 0
	runtime.GC()
	for w.wall < maxStretch*d && (w.wall < d || w.t.nOps() < least) {
		cal.sample()
		w.add(measureSlice(inst, min(calibSlice, d), tr, &logged))
	}
	return w
}

// measureSlice runs ops back to back until d has passed. The first few
// failures are logged to standard error; logged counts them.
func measureSlice(inst instance, d time.Duration, tr *tracer, logged *int) window {
	var w window
	var ac allocCounter
	cpu0 := cpuTime()
	ac.start()
	t0 := time.Now()
	for time.Since(t0) < d {
		root := tr.begin("op", -1)
		lat, err := inst.op(tr, root)
		tr.end(root, "")
		if err != nil && *logged < 5 {
			*logged++
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
		}
		w.t.record(lat, err)
	}
	w.wall = time.Since(t0)
	w.allocs = ac.stop()
	w.cpu = cpuTime() - cpu0
	return w
}

func main() {
	name := flag.String("workload", "", "workload to run: ofdm-sim, jpeg-source or ofdm-service")
	seed := flag.Uint64("seed", 1, "workload seed; drives every generated input")
	seconds := flag.Int("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the traced pass writes its spans to")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {ofdm-sim|jpeg-source|ofdm-service}, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up setupReps times, then measures it: the
// end-to-end window, or with traced set the untraced/traced pair and the
// layer probe.
func run(wl *workload, seed uint64, d time.Duration, traced bool, outDir string) (*result, error) {
	var inst instance
	var setups []float64
	var ref int64
	cal := &calibration{}
	for r := 0; r < setupReps; r++ {
		if inst != nil {
			inst.close()
		}
		cal.sample()
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r > 0 && inst.simCycles() != ref {
			return nil, fmt.Errorf("setup %d: reference set simulated %d cycles, setup 1 gave %d", r+1, inst.simCycles(), ref)
		}
		ref = inst.simCycles()
	}
	defer inst.close()
	fmt.Fprintf(os.Stderr, "perfbench: %s: set-ups took %.3f s\n", wl.name, setups)

	if !traced {
		w := measure(inst, d, minOps, nil, cal)
		return endToEnd(wl.name, w, median(setups), ref, cal.scale())
	}

	// Untraced and traced slices alternate, so drift over the run falls on
	// both; they differ only in the spans recorded around each public call,
	// and their throughput gap is the tracing overhead.
	var plain, withSpans window
	loopTr := newTracer()
	for i := 0; i < traceSlices; i++ {
		plain.add(measure(inst, d/(2*traceSlices), 1, nil, cal))
		withSpans.add(measure(inst, d/(2*traceSlices), 1, loopTr, cal))
	}
	probeTr := &tracer{epoch: loopTr.epoch}
	layers, err := runProbe(probeTr, seed)
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	for layer, t := range probeTr.selfTimes() {
		layers["self_ms."+layer] = metric{float64(t) / float64(time.Millisecond), "ms"}
	}
	layers["trace.overhead_pct"] = metric{100 * (plain.opsPerSec() - withSpans.opsPerSec()) / plain.opsPerSec(), "%"}
	layers["trace.spans"] = metric{float64(len(loopTr.spans) + len(probeTr.spans)), "count"}

	spans := filepath.Join(outDir, fmt.Sprintf("perfbench-spans-%s-%d.json", wl.name, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeChrome(spans, loopTr, probeTr); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s traced: %.1f ops/s untraced, %.1f traced; spans in %s\n",
		wl.name, plain.opsPerSec(), withSpans.opsPerSec(), spans)

	att := plain.t.attempted + withSpans.t.attempted
	failed := plain.t.failed + withSpans.t.failed
	return &result{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: pick(layers, perLayerMetrics)}, nil
}

// endToEnd turns the untraced window into the end-to-end metrics. Times
// and rates are scaled to the reference speed by scale (see calibrate.go);
// the summary on standard error gives them as measured too.
func endToEnd(name string, w window, setupS float64, ref int64, scale float64) (*result, error) {
	lat := w.t.latencies()
	p50, err := percentile(lat, 50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(lat, 90)
	if err != nil {
		return nil, err
	}
	n := float64(w.t.nOps())
	measured := map[string]metric{
		"setup_s":       {setupS, "s"},
		"ops_per_s":     {w.opsPerSec(), "1/s"},
		"p50_ms":        {p50, "ms"},
		"p90_ms":        {p90, "ms"},
		"cpu_ms_per_op": {float64(w.cpu) / float64(time.Millisecond) / n, "ms"},
		"allocs_per_op": {float64(w.allocs) / n, "count"},
		"peak_rss_mb":   {peakRSSMB(), "MiB"},
		"sim_cycles":    {float64(ref), "cycles"},
	}
	m := map[string]metric{}
	for k, v := range measured {
		switch k {
		case "setup_s", "p50_ms", "p90_ms", "cpu_ms_per_op":
			v.Value *= scale
		case "ops_per_s":
			v.Value /= scale
		}
		m[k] = v
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: n_ops=%d over %.1fs, host speed %.3f of the reference\n",
		name, w.t.nOps(), w.wall.Seconds(), scale)
	fmt.Fprintf(os.Stderr, "  %-14s %16s %16s\n", "metric", "reported", "as measured")
	for _, s := range endToEndMetrics {
		fmt.Fprintf(os.Stderr, "  %-14s %16.4f %16.4f %s\n", s.name, m[s.name].Value, measured[s.name].Value, s.unit)
	}
	// failed_ratio is carried by the result's failed/attempted fields: it is
	// 0 on a correct run, and a metric that can be 0 has no relative bound.
	fmt.Fprintf(os.Stderr, "  %-14s %16.4f %16.4f %s\n", "failed_ratio", w.t.failedRatio(), w.t.failedRatio(), "ratio")
	return &result{Correct: w.t.failed == 0, Attempted: w.t.attempted, Failed: w.t.failed, Metrics: pick(m, endToEndMetrics)}, nil
}
