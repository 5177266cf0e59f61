package hybridpart

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"hybridpart/internal/ir"
	"hybridpart/internal/obs"
)

// TestScorePrefixMemo pins the scorer's memo, which is keyed on the record
// index of the one move trajectory a run scores: records hit in any order,
// a later record scores without disturbing earlier ones, and every value
// equals the slate-fed replay of the same moved set.
func TestScorePrefixMemo(t *testing.T) {
	w, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	app, prof, err := w.profiled()
	if err != nil {
		t.Fatal(err)
	}
	// A constraint no mapping meets walks the whole kernel list.
	res, err := mustEngine(t, WithConstraint(1)).PartitionProfiled(context.Background(), app, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moved) < 6 {
		t.Fatalf("trajectory of %d moves, want at least 6", len(res.Moved))
	}
	traj := make([]ir.BlockID, len(res.Moved))
	for i, b := range res.Moved {
		traj[i] = ir.BlockID(b)
	}
	plat := DefaultOptions().platform()
	recs := trajectoryRecords(t, app, plat, traj)
	spec := SimSpec{Frames: 8}
	s, err := newSimScorer(context.Background(), app, prof, plat, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newSimScorer(context.Background(), app, prof, plat, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	step := func(label string, i, scored, hits int) {
		t.Helper()
		v, err := s.Score(context.Background(), recs, i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.rep.Makespan(context.Background(), ref.cfg, traj[:i], &ref.sc.arena)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("%s: scored %d, slate-fed replay says %d", label, v, want)
		}
		if s.stats.Scored != scored || s.stats.MemoHits != hits {
			t.Fatalf("%s: scored %d, hits %d; want %d, %d",
				label, s.stats.Scored, s.stats.MemoHits, scored, hits)
		}
	}
	step("prefix 3", 3, 1, 0)
	step("prefix 3 again", 3, 1, 1)
	step("shorter prefix", 1, 2, 1)
	step("empty prefix", 0, 3, 1)
	step("longer prefix", 6, 4, 1)
	step("old prefix after a longer one", 3, 4, 2)
	step("baseline again", 0, 4, 3)
	step("prefix 2 still unscored", 2, 5, 3)
	step("prefix 6 still memoized", 6, 5, 4)
	if n := s.sc.arena.Packs(); n != 0 {
		t.Errorf("record-fed scoring packed %d mappings, want 0", n)
	}
}

// TestScoreBatchSpanEndsOnCancel: a ScoreBatch call that fails on a
// cancelled context must still end its span, single-frame and pipelined, so
// the trace of a cancelled request keeps its scoring stage.
func TestScoreBatchSpanEndsOnCancel(t *testing.T) {
	app, prof := compileFIR(t)
	for _, spec := range []SimSpec{{}, {Frames: 2}} {
		plat := DefaultOptions().platform()
		s, err := newSimScorer(context.Background(), app, prof, plat, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		tracer := obs.New(obs.Config{Service: "test"})
		rootCtx, root := tracer.StartRoot(context.Background(), "root", obs.SpanContext{})
		ctx, cancel := context.WithCancel(rootCtx)
		cancel()
		if _, err := s.ScoreBatch(ctx, trajectoryRecords(t, app, plat, nil), []int{0}); !errors.Is(err, context.Canceled) {
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
// never of scheduling. Each case runs twice in a row and then on four
// goroutines sharing one Workload and one Engine; every run must report the
// same full SimScoreStats and makespan. OFDM ×8 at constraint 60000 is the
// figure README quotes (25 of 30 trajectory prefixes pruned, 6 replays);
// A1500 ×1 pins the single-frame slates, which go through the same bound
// queue, on OFDM and (outside -short) JPEG.
func TestSimScoreStatsDeterministic(t *testing.T) {
	cases := []struct {
		name   string
		bench  string
		opts   []Option
		want   SimScoreStats
		cycles int64
	}{
		{"ofdm x8", BenchOFDM, []Option{WithConstraint(60000), WithSimFrames(8), WithObjective(ObjectiveSimulated)},
			SimScoreStats{Scored: 6, Replays: 6, MemoHits: 1, Pruned: 25}, 236888},
		{"ofdm a1500x1", BenchOFDM, []Option{WithArea(1500), WithSimFrames(1), WithObjective(ObjectiveSimulated)},
			SimScoreStats{Scored: 2, Replays: 2, MemoHits: 1, Pruned: 29}, 29639},
		{"jpeg a1500x1", BenchJPEG, []Option{WithArea(1500), WithSimFrames(1), WithObjective(ObjectiveSimulated)},
			SimScoreStats{Scored: 2, Replays: 2, MemoHits: 1, Pruned: 74}, 6697515},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.bench == BenchJPEG && testing.Short() {
				t.Skip("skipping JPEG profiling in -short mode")
			}
			w, err := BenchmarkWorkload(tc.bench, 1)
			if err != nil {
				t.Fatal(err)
			}
			eng := mustEngine(t, tc.opts...)
			check := func(label string, res *Result) {
				t.Helper()
				if res.SimStats != tc.want || res.SimulatedCycles != tc.cycles {
					t.Errorf("%s: stats %+v, sim %d; want %+v, sim %d",
						label, res.SimStats, res.SimulatedCycles, tc.want, tc.cycles)
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
		})
	}
}

// scoringDesignPoints are the four engine configurations of the ofdm-sim
// benchmark workload: a single frame, eight pipelined frames, the region
// sequencer, and the prefetch oracle.
var scoringDesignPoints = []struct {
	name string
	opts []Option
}{
	{"a1500x1", []Option{WithArea(1500), WithObjective(ObjectiveSimulated), WithSimFrames(1)}},
	{"a1500x8", []Option{WithArea(1500), WithObjective(ObjectiveSimulated), WithSimFrames(8)}},
	{"a1200x8r2", []Option{WithArea(1200), WithObjective(ObjectiveSimulated), WithSimFrames(8), WithRegions(2)}},
	{"a1200x8pf", []Option{WithArea(1200), WithObjective(ObjectiveSimulated), WithSimFrames(8), WithSimPrefetch(true)}},
}

// TestScoreBatchLazyOrderMatchesEager pins ScoreBatch's lazy walk bound to
// the eager reference it replaced: take every pending candidate's
// max(LowerBound, FineWalkBound), stable-sort on it, and prune against the
// running incumbent. On every scoring design point, for OFDM seeds 1 and 2
// and for JPEG, the lazy queue must replay the same candidates in the same
// order and prune the same set. Every design point, single-frame included,
// must go through the queue. On OFDM seed 1 the number of walk bounds taken
// is pinned too: laziness is the point.
func TestScoreBatchLazyOrderMatchesEager(t *testing.T) {
	type workload struct {
		bench string
		seed  uint32
	}
	workloads := []workload{{BenchOFDM, 1}, {BenchOFDM, 2}}
	if !testing.Short() {
		workloads = append(workloads, workload{BenchJPEG, 1})
	}
	// Walk bounds taken on OFDM seed 1, against 30 pending candidates.
	wantWalks := map[string]int{"a1500x1": 12, "a1500x8": 12, "a1200x8r2": 5, "a1200x8pf": 13}
	for _, wl := range workloads {
		app, prof, err := ProfileBenchmarkCached(wl.bench, wl.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range scoringDesignPoints {
			var recs []batchRecord
			observe := withHooks(scoringHooks{observe: func(r batchRecord) { recs = append(recs, r) }})
			eng := mustEngine(t, append(append([]Option{}, d.opts...), observe)...)
			if _, err := eng.PartitionProfiled(context.Background(), app, prof); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s seed %d %s", wl.bench, wl.seed, d.name)
			if len(recs) == 0 {
				t.Fatalf("%s: no slate went through the bound queue", label)
			}
			ref, err := newSimScorer(context.Background(), app, prof, eng.opts.platform(), simSpecOf(eng.opts), nil)
			if err != nil {
				t.Fatal(err)
			}
			walks := 0
			for _, rec := range recs {
				walks += rec.walkBounds
				replayed, pruned := eagerScoreOrder(t, ref, rec)
				if fmt.Sprint(rec.replayed) != fmt.Sprint(replayed) {
					t.Errorf("%s: replay order %v, eager reference %v", label, rec.replayed, replayed)
				}
				got := slices.Sorted(slices.Values(rec.pruned))
				if fmt.Sprint(got) != fmt.Sprint(pruned) {
					t.Errorf("%s: pruned %v, eager reference %v", label, got, pruned)
				}
			}
			t.Logf("%s: %d batches, %d walk bounds", label, len(recs), walks)
			if wl.bench == BenchOFDM && wl.seed == 1 && walks != wantWalks[d.name] {
				t.Errorf("%s: %d FineWalkBound calls, want %d", label, walks, wantWalks[d.name])
			}
		}
	}
}

// eagerScoreOrder is the reference branch-and-bound of one recorded slate:
// both bounds for every pending candidate up front, a stable sort on their
// maximum, and a strict prune against the incumbent as it falls. It
// returns the replay order and the pruned slate indices, sorted.
func eagerScoreOrder(t *testing.T, ref *simScorer, rec batchRecord) (replayed, pruned []int) {
	t.Helper()
	bounds := map[int]int64{}
	for _, i := range rec.pending {
		lb, err := ref.rep.LowerBound(ref.cfg, rec.candidates[i])
		if err != nil {
			t.Fatal(err)
		}
		wb, err := ref.rep.FineWalkBound(ref.cfg, rec.candidates[i], &ref.sc.arena)
		if err != nil {
			t.Fatal(err)
		}
		bounds[i] = max(lb, wb)
	}
	order := slices.Clone(rec.pending)
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(bounds[a], bounds[b]) })
	incumbent := rec.seed
	for _, i := range order {
		if bounds[i] > incumbent {
			pruned = append(pruned, i)
			continue
		}
		v, err := ref.rep.Makespan(context.Background(), ref.cfg, rec.candidates[i], &ref.sc.arena)
		if err != nil {
			t.Fatal(err)
		}
		incumbent = min(incumbent, v)
		replayed = append(replayed, i)
	}
	slices.Sort(pruned)
	return replayed, pruned
}

// TestScoreBatchTies pins the two tie rules the lazy queue must keep to
// replay in the eager order. A candidate whose bound equals the incumbent
// still replays (pruning is strict): the all-FPGA mapping's walk bound is
// exact on OFDM ×8, so a slate holding it twice must replay both copies.
// And at equal keys a candidate still owed its walk bound pops before one
// that has it, then the lower slate index first.
func TestScoreBatchTies(t *testing.T) {
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, WithObjective(ObjectiveSimulated), WithSimFrames(8))
	plat := eng.opts.platform()
	s, err := newSimScorer(context.Background(), app, prof, plat, simSpecOf(eng.opts), nil)
	if err != nil {
		t.Fatal(err)
	}
	var recs []batchRecord
	s.hooks.observe = func(r batchRecord) { recs = append(recs, r) }
	out, err := s.ScoreBatch(context.Background(), trajectoryRecords(t, app, plat, nil), []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || fmt.Sprint(recs[0].replayed) != "[0 1]" || out[1].Pruned || out[0].Cycles != out[1].Cycles {
		t.Fatalf("duplicate all-FPGA slate: scores %+v, records %+v; want both replayed", out, recs)
	}
	if recs[0].walkBounds != 2 {
		t.Fatalf("%d walk bounds, want 2", recs[0].walkBounds)
	}

	ordered := []boundEntry{
		{key: 5, idx: 3},
		{key: 5, idx: 0, walked: true},
		{key: 5, idx: 1, walked: true},
		{key: 6, idx: 0},
	}
	for i := range ordered {
		for j := range ordered {
			if got := ordered[i].before(ordered[j]); got != (i < j) {
				t.Errorf("%+v before %+v = %v, want %v", ordered[i], ordered[j], got, i < j)
			}
		}
	}
}
