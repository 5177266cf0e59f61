package hybridpart

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hybridpart/internal/ir"
	"hybridpart/internal/obs"
)

// TestMovedKey: the memo key ignores move order, separates sets whose
// digits concatenate alike, and costs one allocation — the string itself.
func TestMovedKey(t *testing.T) {
	if a, b := movedKey([]ir.BlockID{3, 1, 20}), movedKey([]ir.BlockID{20, 3, 1}); a != b || a != "1,3,20," {
		t.Fatalf("order-dependent key: %q vs %q", a, b)
	}
	if movedKey([]ir.BlockID{1, 12}) == movedKey([]ir.BlockID{11, 2}) {
		t.Fatal("distinct sets share a key")
	}
	if movedKey(nil) != "" {
		t.Fatalf("empty set key %q", movedKey(nil))
	}
	moved := []ir.BlockID{29, 4, 17, 8, 11}
	if n := testing.AllocsPerRun(100, func() { _ = movedKey(moved) }); n > 1 {
		t.Fatalf("movedKey allocates %v times per call, want 1", n)
	}
}

// TestScoreBatchSpanEndsOnCancel: a ScoreBatch call that fails on a
// cancelled context must still end its span, in both scoring regimes, so
// the trace of a cancelled request keeps its scoring stage.
func TestScoreBatchSpanEndsOnCancel(t *testing.T) {
	app, prof := compileFIR(t)
	for _, spec := range []SimSpec{{}, {Frames: 2}} { // closed-form, replay
		s, err := newSimScorer(app, prof, DefaultOptions().platform(false), spec)
		if err != nil {
			t.Fatal(err)
		}
		tracer := obs.New(obs.Config{Service: "test"})
		rootCtx, root := tracer.StartRoot(context.Background(), "root", obs.SpanContext{})
		ctx, cancel := context.WithCancel(rootCtx)
		cancel()
		if _, err := s.ScoreBatch(ctx, [][]ir.BlockID{nil}); !errors.Is(err, context.Canceled) {
			t.Fatalf("frames=%d: err = %v, want context.Canceled", spec.Frames, err)
		}
		root.End()
		traces := tracer.Traces()
		if len(traces) != 1 {
			t.Fatalf("frames=%d: got %d finished traces, want 1", spec.Frames, len(traces))
		}
		found := false
		for _, sp := range traces[0].Spans {
			found = found || sp.Name == "sim.ScoreBatch"
		}
		if !found {
			t.Errorf("frames=%d: sim.ScoreBatch span missing from the cancelled run's trace", spec.Frames)
		}
	}
}

// TestSimScoreStatsDeterministic: scoring stats are a function of the run,
// never of scheduling. OFDM ×8 under the simulated objective runs twice in
// a row and then on four goroutines sharing one Workload and one Engine;
// every run must report the same full SimScoreStats, equal to the figures
// README quotes (25 of 30 trajectory prefixes pruned, 6 replays).
func TestSimScoreStatsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	w, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(WithConstraint(60000), WithSimFrames(8), WithObjective(ObjectiveSimulated))
	if err != nil {
		t.Fatal(err)
	}
	want := SimScoreStats{Scored: 6, Replays: 6, MemoHits: 1, Pruned: 25}
	check := func(label string, res *Result) {
		t.Helper()
		if res.SimStats != want || res.SimulatedCycles != 236888 {
			t.Errorf("%s: stats %+v, sim %d; want %+v, sim 236888", label, res.SimStats, res.SimulatedCycles, want)
		}
	}
	for run := 0; run < 2; run++ {
		res, err := eng.Partition(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("serial run %d", run), res)
	}
	results := make([]*Result, 4)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = eng.Partition(context.Background(), w)
		}()
	}
	wg.Wait()
	for g, res := range results {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		check(fmt.Sprintf("goroutine %d", g), res)
	}
}
