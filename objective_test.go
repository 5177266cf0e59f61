package hybridpart

import (
	"context"
	"errors"
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
