package hybridpart

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// simPresets are the platform variants the parity contract covers: the
// paper baseline plus every registered preset.
var simPresets = []string{"default", "paper-small", "paper-large", "dsp-rich", "lut-only"}

// TestSimulateModelParity is the model-vs-simulation contract: on
// contention-free (one port), single-frame, no-prefetch configurations the
// co-simulator reproduces the analytical cycle counts exactly — for both
// benchmarks, across every platform preset, on both the all-FPGA baseline
// and the partitioned mapping.
func TestSimulateModelParity(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	for _, bench := range Benchmarks() {
		for _, preset := range simPresets {
			app, prof, err := ProfileBenchmarkCached(bench, 1)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(WithPlatform(preset), WithConstraint(DefaultConstraint(bench)))
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.PartitionProfiled(context.Background(), app, prof)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.SimulateProfiled(context.Background(), app, prof)
			if err != nil {
				t.Fatal(err)
			}
			if rep.BaselineCycles != res.InitialCycles {
				t.Errorf("%s/%s: simulated all-FPGA %d cycles, model %d",
					bench, preset, rep.BaselineCycles, res.InitialCycles)
			}
			if rep.TotalCycles != res.FinalCycles {
				t.Errorf("%s/%s: simulated partitioned %d cycles, model %d (%d reconfigs vs %d crossings)",
					bench, preset, rep.TotalCycles, res.FinalCycles, rep.Reconfigs, rep.ModelCrossings)
			}
			if !rep.Validation.Exact {
				t.Errorf("%s/%s: validation not exact: %+v", bench, preset, rep.Validation)
			}
		}
	}
}

// TestSimulateTable2Tolerance is the Table-2 check at the simulation level:
// on the paper's evaluation configurations the simulated speedup must stay
// within 0.5%% of the model's prediction (with exact parity it is 0).
func TestSimulateTable2Tolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	for _, bench := range Benchmarks() {
		w, err := BenchmarkWorkload(bench, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(WithConstraint(DefaultConstraint(bench)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Simulate(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Validation.SimSpeedup <= 1 {
			t.Errorf("%s: simulated speedup %.3f, want > 1", bench, rep.Validation.SimSpeedup)
		}
		if e := rep.Validation.SpeedupErrorPct; e > 0.5 || e < -0.5 {
			t.Errorf("%s: simulated speedup off by %.3f%%, tolerance 0.5%%", bench, e)
		}
	}
}

// TestSimulateDeterministicJSON is the determinism contract: repeated
// Simulate calls on the same workload produce byte-identical JSON.
func TestSimulateDeterministicJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(WithConstraint(60000), WithSimFrames(4), WithSimPorts(2), WithSimPrefetch(true))
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.SimulateProfiled(context.Background(), app, prof)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.SimulateProfiled(context.Background(), app, prof)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("repeated simulation JSON diverged:\n%s\n%s", aj, bj)
	}
}

// TestSimulateWorkloadVsProfiled pins the two entry points to each other:
// a Workload and its (App, RunProfile) pair simulate identically.
func TestSimulateWorkloadVsProfiled(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	w, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(WithConstraint(60000))
	if err != nil {
		t.Fatal(err)
	}
	viaWorkload, err := eng.Simulate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	viaProfiled, err := eng.SimulateProfiled(context.Background(), w.App(), w.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaWorkload, viaProfiled) {
		t.Fatal("Workload and (App, RunProfile) paths diverge")
	}
}

// TestSimulatePrefetchNeverSlower is the prefetch contract on the paper
// benchmarks, single- and multi-frame.
func TestSimulatePrefetchNeverSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	for _, bench := range Benchmarks() {
		app, prof, err := ProfileBenchmarkCached(bench, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, frames := range []int{1, 16} {
			simulate := func(prefetch bool) *SimReport {
				eng := mustEngine(t, WithConstraint(DefaultConstraint(bench)), WithSimFrames(frames), WithSimPrefetch(prefetch))
				rep, err := eng.SimulateProfiled(context.Background(), app, prof)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			off, on := simulate(false), simulate(true)
			if on.TotalCycles > off.TotalCycles {
				t.Errorf("%s frames=%d: prefetch slower: %d > %d", bench, frames, on.TotalCycles, off.TotalCycles)
			}
		}
	}
}

// TestSimulateRegionsHeadline pins the partial-dynamic-reconfiguration
// headline on reconfiguration-bound OFDM (constraint 60000, A_FPGA 1200, 8
// pipelined frames): the monolithic context simulates 399176 cycles with or
// without prefetch, and two independently reconfigurable regions 358824.
// Two regions must strictly beat the single-context model's best
// mitigation, prefetch, and prefetch must never lose to the plain
// monolithic run.
func TestSimulateRegionsHeadline(t *testing.T) {
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	simulate := func(opt ...Option) int64 {
		eng := mustEngine(t, append([]Option{WithConstraint(60000), WithArea(1200), WithSimFrames(8)}, opt...)...)
		rep, err := eng.SimulateProfiled(context.Background(), app, prof)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalCycles
	}
	r1, r1Prefetch, r2 := simulate(), simulate(WithSimPrefetch(true)), simulate(WithRegions(2))
	if r1 != 399176 || r1Prefetch != 399176 || r2 != 358824 {
		t.Errorf("R=1 %d, R=1 prefetch %d, R=2 %d; want 399176, 399176, 358824", r1, r1Prefetch, r2)
	}
	if r2 >= r1Prefetch {
		t.Errorf("R=2 (%d cycles) does not beat R=1 with prefetch (%d)", r2, r1Prefetch)
	}
	if r1Prefetch > r1 {
		t.Errorf("prefetch slower: %d > %d", r1Prefetch, r1)
	}
}

// TestSimulateEvents checks the observer stream: baseline frames first,
// then partitioned frames, each in order, with cumulative cycle stamps.
func TestSimulateEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	var events []SimEvent
	eng, err := NewEngine(
		WithConstraint(60000),
		WithSimFrames(3),
		WithObserver(func(ev Event) {
			if se, ok := ev.(SimEvent); ok {
				events = append(events, se)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	w, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Simulate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("%d SimEvents, want 6 (3 baseline + 3 partitioned)", len(events))
	}
	for i, ev := range events {
		wantStage, wantFrame := "baseline", i+1
		if i >= 3 {
			wantStage, wantFrame = "partitioned", i-2
		}
		if ev.Stage != wantStage || ev.Frame != wantFrame || ev.Frames != 3 {
			t.Fatalf("event %d = %+v, want stage %q frame %d/3", i, ev, wantStage, wantFrame)
		}
		if i > 0 && events[i].Stage == events[i-1].Stage && ev.Cycles < events[i-1].Cycles {
			t.Fatalf("cycle stamps regress: %+v after %+v", ev, events[i-1])
		}
	}
	if got := events[5].Cycles; got != rep.TotalCycles {
		t.Fatalf("last partitioned frame at %d, makespan %d", got, rep.TotalCycles)
	}
	if EventName(events[0]) != "sim" {
		t.Fatalf("SimEvent wire name %q, want \"sim\"", EventName(events[0]))
	}
}

func TestSimulateSpecValidation(t *testing.T) {
	w, err := NewWorkload("void main_fn() { int x; x = 1; }", "main_fn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(WithSimFrames(-1)); err == nil {
		t.Error("negative frames accepted")
	}
	if _, err := NewEngine(WithSimPorts(-2)); err == nil {
		t.Error("negative ports accepted")
	}
	eng, err := NewEngine(WithConstraint(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Simulate(context.Background(), nil); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := eng.SimulateProfiled(context.Background(), nil, nil); err == nil {
		t.Error("nil app/profile accepted")
	}
}

// TestSimSpeedupZeroCycles pins the zero-makespan guard of
// SimReport.Speedup: an empty makespan reports a speedup of 1, not Inf or
// NaN.
func TestSimSpeedupZeroCycles(t *testing.T) {
	if got := simSpeedup(0, 0); got != 1 {
		t.Fatalf("simSpeedup(0, 0) = %v, want 1", got)
	}
	if got := simSpeedup(500, 0); got != 1 {
		t.Fatalf("simSpeedup(500, 0) = %v, want 1", got)
	}
	if got := simSpeedup(300, 200); got != 1.5 {
		t.Fatalf("simSpeedup(300, 200) = %v, want 1.5", got)
	}
}

// TestSimulateFormat pins the report renderer's load-bearing pieces: the
// table always carries a validation section and the per-kernel timeline.
func TestSimulateFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(WithConstraint(60000))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.SimulateProfiled(context.Background(), app, prof)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	for _, want := range []string{"validation:", "fine-grain", "coarse-grain", "Simulated speedup:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() lacks %q:\n%s", want, out)
		}
	}
	if len(rep.Validation.Notes) == 0 {
		t.Error("validation notes empty — the report should always explain its verdict")
	}
	if rep.Format() != out {
		t.Error("Format not deterministic")
	}
}

// TestSimulateCancelled propagates context cancellation.
func TestSimulateCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	app, prof, err := ProfileBenchmarkCached(BenchJPEG, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(WithConstraint(DefaultConstraint(BenchJPEG)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SimulateProfiled(ctx, app, prof); err != context.Canceled {
		t.Fatalf("cancelled simulate returned %v", err)
	}
}
