package hybridpart

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"hybridpart/internal/analysis"
	"hybridpart/internal/apps"
	"hybridpart/internal/sim"
)

// scoringProducts exposes the scoring context a profile snapshot has built
// so far: its canonical trace and its stored analysis report.
func (p *RunProfile) scoringProducts() (*sim.Trace, *analysis.Report) {
	var rep *analysis.Report
	if pa := p.analysis.Load(); pa != nil {
		rep = pa.rep
	}
	return p.trace, rep
}

// a1500x8 is the ofdm-sim design point with eight pipelined frames.
func a1500x8(t testing.TB) *Engine {
	return mustEngine(t, WithArea(1500), WithObjective(ObjectiveSimulated), WithSimFrames(8))
}

func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWorkloadSnapshotFollowsRuns partitions a workload, runs it again and
// partitions again: the second result must be the one a fresh workload
// profiled with the same two runs gives, byte for byte, so the shared
// snapshot and its scoring context never outlive a Run. A failed run drops
// the snapshot too, and the copies Profile returns are the caller's own.
func TestWorkloadSnapshotFollowsRuns(t *testing.T) {
	ctx := context.Background()
	eng := a1500x8(t)
	w, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Partition(ctx, w)
	if err != nil {
		t.Fatal(err)
	}

	// Mutating a copy must not reach the shared snapshot.
	p := w.Profile()
	for i := range p.Freq {
		p.Freq[i] *= 3
	}
	p.edges[0].N *= 3
	again, err := eng.Partition(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, again) != resultJSON(t, first) {
		t.Fatalf("mutating Profile()'s copy changed a later Partition:\n got  %s\n want %s",
			resultJSON(t, again), resultJSON(t, first))
	}

	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	second, err := eng.Partition(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	want, err := eng.Partition(ctx, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, second) == resultJSON(t, first) {
		t.Fatal("a second profiled run left the result unchanged; the test cannot see a stale snapshot")
	}
	if resultJSON(t, second) != resultJSON(t, want) {
		t.Fatalf("partition after a second Run differs from a fresh two-run workload:\n got  %s\n want %s",
			resultJSON(t, second), resultJSON(t, want))
	}

	_, before, _ := w.profiled()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := w.RunContext(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on a cancelled context: %v, want context.Canceled", err)
	}
	if _, after, _ := w.profiled(); after == before {
		t.Fatal("a failed run kept the previous snapshot")
	}
}

// TestScoringContextShared pins the per-profile scoring context: two
// Partition calls on one workload share one snapshot, one canonical trace
// and one analysis report, and Analyze, Simulate and PartitionEnergy reuse
// them instead of rebuilding.
func TestScoringContextShared(t *testing.T) {
	ctx := context.Background()
	w, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := a1500x8(t)
	if _, err := eng.Partition(ctx, w); err != nil {
		t.Fatal(err)
	}
	_, p, _ := w.profiled()
	trace, rep := p.scoringProducts()
	if trace == nil || rep == nil {
		t.Fatalf("after a simulated-objective run the snapshot holds trace %p, report %p; want both", trace, rep)
	}
	same := func(label string) {
		t.Helper()
		_, q, _ := w.profiled()
		if q != p {
			t.Fatalf("%s: the workload took a new snapshot", label)
		}
		if tr, r := q.scoringProducts(); tr != trace || r != rep {
			t.Fatalf("%s: trace %p report %p, want the first run's %p %p", label, tr, r, trace, rep)
		}
	}
	if _, err := eng.Partition(ctx, w); err != nil {
		t.Fatal(err)
	}
	same("second Partition")
	an, err := eng.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if an.rep != rep {
		t.Fatal("Analyze re-analyzed the profile")
	}
	// A model-objective engine builds no scorer, so Simulate replays
	// through its own Replayer, on the profile's trace.
	if _, err := mustEngine(t, WithSimFrames(2)).Simulate(ctx, w); err != nil {
		t.Fatal(err)
	}
	if _, err := mustEngine(t, WithEnergyBudget(1)).PartitionEnergy(ctx, w); err != nil {
		t.Fatal(err)
	}
	same("Analyze, Simulate and PartitionEnergy")

	// Other weights replace the stored report instead of reading it.
	heavy := mustEngine(t, withKnobs(func(o *Options) {
		o.WeightALU, o.WeightMul, o.WeightDiv, o.WeightMem = 1, 8, 4, 1
	}))
	got, err := heavy.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantAn, err := heavy.Analyze(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(wantAn.Kernels, an.Kernels) {
		t.Fatal("both weight assignments give the same analysis; the test cannot tell the reports apart")
	}
	if !reflect.DeepEqual(got.Kernels, wantAn.Kernels) {
		t.Fatalf("analysis under other weights reused the stored report:\n got  %+v\n want %+v", got.Kernels, wantAn.Kernels)
	}

	// A profile built literally has no App and keeps no context, but
	// partitions the same.
	lit := &RunProfile{Freq: p.Freq, edges: p.edges}
	res, err := eng.PartitionProfiled(ctx, w.App(), lit)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Partition(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != resultJSON(t, want) {
		t.Fatalf("literal profile result differs:\n got  %s\n want %s", resultJSON(t, res), resultJSON(t, want))
	}
	if tr, r := lit.scoringProducts(); tr != nil || r != nil {
		t.Fatal("a literal profile stored a scoring context")
	}
}

// TestProfileKernelOrders checks every stored kernel order, and an
// out-of-range strategy value, against analysis.OrderKernels.
func TestProfileKernelOrders(t *testing.T) {
	w, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	app, p, err := w.profiled()
	if err != nil {
		t.Fatal(err)
	}
	pa := p.analysisFor(app, DefaultOptions().weights())
	for _, order := range []KernelOrder{OrderByTotalWeight, OrderByFreq, OrderByOpWeight, 7} {
		want := analysis.OrderKernels(pa.rep, order)
		for range 2 {
			if got := pa.kernels(order); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: kernels %v, want %v", order, got, want)
			}
		}
	}
	if reflect.DeepEqual(pa.kernels(OrderByFreq), pa.kernels(OrderByOpWeight)) {
		t.Fatal("frequency and op-weight orders coincide; the test cannot tell the slots apart")
	}
}

// TestEnginePartitionAllocs pins the allocations of a warm A1500 ×8
// Engine.Partition on one workload: the snapshot, trace, report and kernel
// order are reused, and the run's trajectory records, arena and memo come
// from the scratch pool, so a run pays only for its scorer, replayer floors
// and result. It measures 26 (go1.24, linux/amd64; 70 before the pooled
// records); rebuilding the trace alone adds 60. Under -race the pool drops
// a random quarter of the returned scratch, so there the runs only
// exercise the pooled scratch's lifetime and the count is logged, not
// pinned.
func TestEnginePartitionAllocs(t *testing.T) {
	w, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := a1500x8(t)
	ctx := context.Background()
	var res *Result
	run := func() {
		if res, err = eng.Partition(ctx, w); err != nil {
			t.Fatal(err)
		}
	}
	run()
	n := testing.AllocsPerRun(20, run)
	if res.SimulatedCycles != 236888 {
		t.Fatalf("simulated %d cycles, want 236888", res.SimulatedCycles)
	}
	t.Logf("%v allocations per run", n)
	const ceiling = 31
	if n > ceiling && !raceEnabled {
		t.Errorf("warm A1500 ×8 Engine.Partition allocates %v times per run, ceiling %d", n, ceiling)
	}
}

// TestLatencyTableCancelled cancels the first run on a fresh App: the
// data-path latency build stops with the context's error and stores
// nothing, and the next run builds the full table and partitions as a
// never-cancelled App does.
func TestLatencyTableCancelled(t *testing.T) {
	// BenchmarkWorkload shares the memoized App, whose table another test
	// may have built; this run needs an App of its own.
	app, err := Compile(apps.OFDMSource(), OFDMEntryFunc)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorkload(app)
	if err := w.SetInput(OFDMBitsArray, OFDMBits(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	eng := a1500x8(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Partition(cancelled, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("Partition on a cancelled context: %v, want context.Canceled", err)
	}
	if got := w.App().latencies.Load(); got != nil {
		t.Fatal("the App stored a latency table from a cancelled build")
	}
	got, err := eng.Partition(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if w.App().latencies.Load() == nil {
		t.Fatal("no latency table after a completed run")
	}
	ref, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Partition(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, got) != resultJSON(t, want) {
		t.Fatalf("run after a cancelled build differs:\n got  %s\n want %s", resultJSON(t, got), resultJSON(t, want))
	}
}
