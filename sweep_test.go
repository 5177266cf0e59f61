package hybridpart

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestProfileCacheBounded drives ProfileBenchmarkCached past its capacity
// with distinct seeds (the service exposes the seed to clients, so the memo
// must stay bounded) and checks eviction keeps the map at the cap while
// still serving every caller.
func TestProfileCacheBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	for seed := uint32(1000); seed < uint32(1000+DefaultProfileMemoBound+8); seed++ {
		app, prof, err := ProfileBenchmarkCached(BenchOFDM, seed)
		if err != nil {
			t.Fatal(err)
		}
		if app == nil || prof == nil {
			t.Fatalf("seed %d: nil result", seed)
		}
	}
	profileCache.mu.Lock()
	size, order := len(profileCache.entries), len(profileCache.order)
	profileCache.mu.Unlock()
	if size > DefaultProfileMemoBound || order != size {
		t.Fatalf("profile cache unbounded: %d entries, %d order records (cap %d)",
			size, order, DefaultProfileMemoBound)
	}
	// Evicted pairs recompile transparently.
	if _, _, err := ProfileBenchmarkCached(BenchOFDM, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConstraint(t *testing.T) {
	if DefaultConstraint(BenchOFDM) != 60000 || DefaultConstraint(BenchJPEG) != 21000000 {
		t.Fatalf("paper constraints wrong: ofdm=%d jpeg=%d",
			DefaultConstraint(BenchOFDM), DefaultConstraint(BenchJPEG))
	}
	if DefaultConstraint("nope") != 0 {
		t.Fatal("unknown benchmark has a default constraint")
	}
}

func TestOptionsFor(t *testing.T) {
	def, err := OptionsFor("")
	if err != nil || !reflect.DeepEqual(def, DefaultOptions()) {
		t.Fatalf("empty preset != DefaultOptions (err %v)", err)
	}
	large, err := OptionsFor("paper-large")
	if err != nil {
		t.Fatal(err)
	}
	if large.AFPGA != 5000 || large.NumCGCs != 2 {
		t.Fatalf("paper-large wrong: %+v", large)
	}
	dsp, err := OptionsFor("dsp-rich")
	if err != nil {
		t.Fatal(err)
	}
	if dsp.Costs.AreaMul >= def.Costs.AreaMul {
		t.Fatalf("dsp-rich cost table not installed: %+v", dsp.Costs)
	}
	if err := dsp.platform().Validate(); err != nil {
		t.Fatalf("dsp-rich options yield invalid platform: %v", err)
	}
	if _, err := OptionsFor("no-such-preset"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if len(PlatformPresets()) < 4 {
		t.Fatalf("preset registry too small: %v", PlatformPresets())
	}
}

func TestProfileBenchmarkCached(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	app1, prof1, err := ProfileBenchmarkCached(BenchOFDM, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent and repeated lookups share the one compiled+profiled App.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			app2, prof2, err := ProfileBenchmarkCached(BenchOFDM, 3)
			if err != nil {
				t.Error(err)
				return
			}
			if app2 != app1 || prof2 != prof1 {
				t.Error("cache returned a different instance")
			}
		}()
	}
	wg.Wait()
	// A different seed is a different cache entry. Both may profile one
	// App: the compiled-App memo shares it between seeds.
	_, prof3, err := ProfileBenchmarkCached(BenchOFDM, 4)
	if err != nil {
		t.Fatal(err)
	}
	if prof3 == prof1 {
		t.Fatal("distinct seeds share a cache entry")
	}
	if _, _, err := ProfileBenchmarkCached("nope", 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestSweepMatchesSerial is the engine's parity check: every cell of a
// parallel sweep must reproduce exactly what a serial per-cell
// Engine.Partition loop produces (the acceptance property behind refactoring
// cmd/experiments onto the engine).
func TestSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	areas := []int{1500, 5000}
	ncgcs := []int{2, 3}
	rs, err := mustEngine(t).Sweep(context.Background(), SweepSpec{
		Benchmarks: []string{BenchOFDM},
		Areas:      areas,
		CGCs:       ncgcs,
		Seed:       1,
		Workers:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Outcomes) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(rs.Outcomes))
	}

	// Serial reference path: fresh compile+profile and Partition per cell.
	w, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, afpga := range areas {
		for _, ncgc := range ncgcs {
			eng := mustEngine(t, WithArea(afpga), WithCGCs(ncgc), WithConstraint(DefaultConstraint(BenchOFDM)))
			want, err := eng.Partition(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			got := rs.Find(BenchOFDM, "", afpga, ncgc, 0)
			if got == nil {
				t.Fatalf("cell afpga=%d cgcs=%d missing", afpga, ncgc)
			}
			if got.Failed() {
				t.Fatalf("cell afpga=%d cgcs=%d failed: %s", afpga, ncgc, got.Err)
			}
			if got.InitialCycles != want.InitialCycles ||
				got.CyclesInCGC != want.CyclesInCGC ||
				got.FinalCycles != want.FinalCycles ||
				got.Met != want.Met ||
				!reflect.DeepEqual(got.Moved, want.Moved) {
				t.Fatalf("cell afpga=%d cgcs=%d diverges from serial path:\n got %+v\nwant %+v",
					afpga, ncgc, got, want)
			}
			if got.EffectiveConstraint != want.Constraint {
				t.Fatalf("constraint defaulting broken: %d vs %d", got.EffectiveConstraint, want.Constraint)
			}
		}
	}
}

func TestSweepRecordsUnknownBenchmark(t *testing.T) {
	rs, err := mustEngine(t).Sweep(context.Background(), SweepSpec{Benchmarks: []string{"nope"}, Areas: []int{1500}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	failed := rs.Failed()
	if len(failed) != 1 || failed[0].Err == "" {
		t.Fatalf("unknown benchmark not recorded as a per-cell failure: %+v", rs.Outcomes)
	}
}

func TestSweepRequiresConstraintForCustomBench(t *testing.T) {
	// A benchmark without a paper default and no explicit constraint must
	// fail loudly, not partition against a zero constraint.
	rs, err := mustEngine(t).Sweep(context.Background(), SweepSpec{Benchmarks: []string{"nope2"}, Constraints: nil, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Failed()) != 1 {
		t.Fatalf("missing-constraint cell did not fail: %+v", rs.Outcomes)
	}
}

// memoSrc is a small program with an initialized global array that every
// run rewrites, so a shared initializer would show in a second Workload.
const memoSrc = `
int T[4] = {1, 2, 3, 4};
int IN[4];
int f() {
    int i;
    int s = 0;
    for (i = 0; i < 4; i++) { T[i] = T[i] + IN[i]; s = s + T[i]; }
    return s;
}
`

var memoSrcSeq atomic.Int64

// uniqueSource returns src with a trailing comment that no other call
// returns, so the compiled-App memo has never seen the text.
func uniqueSource(src string) string {
	return fmt.Sprintf("%s// %d.%d\n", src, time.Now().UnixNano(), memoSrcSeq.Add(1))
}

// memoHolds reports whether the compiled-App memo keeps (src, entry), and
// checks that its order list and weight agree with its entries.
func memoHolds(t *testing.T, src, entry string) bool {
	t.Helper()
	sourceApps.mu.Lock()
	defer sourceApps.mu.Unlock()
	weight := 0
	for _, e := range sourceApps.entries {
		weight += e.weight
	}
	if len(sourceApps.order) != len(sourceApps.entries) || weight != sourceApps.weight {
		t.Fatalf("memo books disagree: %d order records, %d entries, weight %d recorded %d",
			len(sourceApps.order), len(sourceApps.entries), weight, sourceApps.weight)
	}
	if len(sourceApps.entries) > sourceMemoEntries || sourceApps.weight > sourceMemoBytes {
		t.Fatalf("memo over its bounds: %d entries, %d bytes", len(sourceApps.entries), sourceApps.weight)
	}
	_, ok := sourceApps.entries[sourceKey{SourceHash(src), entry}]
	return ok
}

func mustWorkload(t *testing.T, src, entry string) *Workload {
	t.Helper()
	w, err := NewWorkload(src, entry)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSourceMemoConcurrentCompileOnce: concurrent first callers on a new
// source share one compiled App, whose hash is the source's.
func TestSourceMemoConcurrentCompileOnce(t *testing.T) {
	src := uniqueSource(memoSrc)
	const n = 16
	apps := make([]*App, n)
	var wg sync.WaitGroup
	for i := range apps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := NewWorkload(src, "f")
			if err != nil {
				t.Error(err)
				return
			}
			apps[i] = w.App()
		}()
	}
	wg.Wait()
	for i, a := range apps {
		if a == nil || a != apps[0] {
			t.Fatalf("caller %d got App %p, caller 0 got %p: the source compiled more than once", i, a, apps[0])
		}
	}
	if apps[0].SourceHash() != SourceHash(src) {
		t.Fatalf("App hash %s, want %s", apps[0].SourceHash(), SourceHash(src))
	}
	if !memoHolds(t, src, "f") {
		t.Fatal("the memo dropped a fresh source")
	}
}

// TestSourceMemoWorkloadsIndependent: two Workloads sharing a compiled App
// keep their own globals and profiles, so neither the shared initializer
// nor the shared flattened function carries state between them.
func TestSourceMemoWorkloadsIndependent(t *testing.T) {
	src := uniqueSource(memoSrc)
	a, b := mustWorkload(t, src, "f"), mustWorkload(t, src, "f")
	if a.App() != b.App() {
		t.Fatal("two Workloads of one source compiled it twice")
	}
	if err := a.SetInput("IN", []int32{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := a.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := a.Data("T"), []int32{21, 42, 63, 84}; !slices.Equal(got, want) {
		t.Fatalf("a's T = %v, want %v", got, want)
	}
	checkFresh := func(name string, w *Workload) {
		t.Helper()
		if got, want := w.Data("T"), []int32{1, 2, 3, 4}; !slices.Equal(got, want) {
			t.Fatalf("%s: T = %v after another Workload ran, want the initializer %v", name, got, want)
		}
		if got := w.Data("IN"); !slices.Equal(got, make([]int32, 4)) {
			t.Fatalf("%s: IN = %v after another Workload's SetInput", name, got)
		}
		if w.InstructionsExecuted() != 0 || slices.ContainsFunc(w.Profile().Freq, func(n uint64) bool { return n != 0 }) {
			t.Fatalf("%s: profile not empty after another Workload ran", name)
		}
	}
	checkFresh("b", b)
	c := mustWorkload(t, src, "f")
	checkFresh("a later Workload", c)
	// The shared function runs the same on each: one run of c from the
	// initializer matches a's first run.
	if err := c.SetInput("IN", []int32{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Run(); err != nil || got != 11+22+33+44 {
		t.Fatalf("c's run = %d, %v; want %d", got, err, 11+22+33+44)
	}
}

// TestSourceMemoEvictsAtEntryBound fills the memo with one more source than
// its entry bound: the oldest goes, and asking for it again compiles anew.
func TestSourceMemoEvictsAtEntryBound(t *testing.T) {
	first := uniqueSource(memoSrc)
	w0 := mustWorkload(t, first, "f")
	for range sourceMemoEntries - 1 {
		mustWorkload(t, uniqueSource(memoSrc), "f")
	}
	if !memoHolds(t, first, "f") {
		t.Fatalf("the oldest of %d sources evicted before the bound", sourceMemoEntries)
	}
	mustWorkload(t, uniqueSource(memoSrc), "f")
	if memoHolds(t, first, "f") {
		t.Fatalf("the oldest source kept past the bound of %d entries", sourceMemoEntries)
	}
	if size, bound := SourceMemoStats(); size != sourceMemoEntries || bound != sourceMemoEntries {
		t.Fatalf("SourceMemoStats = %d, %d; want a full memo of %d", size, bound, sourceMemoEntries)
	}
	if w := mustWorkload(t, first, "f"); w.App() == w0.App() {
		t.Fatal("an evicted source came back without a compile")
	}
}

// TestSourceMemoByteBound: sources are charged their length. One over the
// whole bound compiles without entering the memo or evicting from it, and
// two that overflow it together evict the older.
func TestSourceMemoByteBound(t *testing.T) {
	pad := func(n int) string { return uniqueSource(memoSrc + "// " + strings.Repeat("x", n) + "\n") }
	small := uniqueSource(memoSrc)
	mustWorkload(t, small, "f")
	huge := pad(sourceMemoBytes)
	a, b := mustWorkload(t, huge, "f"), mustWorkload(t, huge, "f")
	if a.App() == b.App() || memoHolds(t, huge, "f") {
		t.Fatal("a source over the byte bound was kept")
	}
	if !memoHolds(t, small, "f") {
		t.Fatal("a source over the byte bound evicted the memo")
	}
	if a.App().SourceHash() != SourceHash(huge) {
		t.Fatal("an unkept App lost its source hash")
	}
	older, newer := pad(sourceMemoBytes*3/5), pad(sourceMemoBytes*3/5)
	mustWorkload(t, older, "f")
	if !memoHolds(t, older, "f") {
		t.Fatal("a source under the byte bound was not kept")
	}
	mustWorkload(t, newer, "f")
	if memoHolds(t, older, "f") || !memoHolds(t, newer, "f") {
		t.Fatal("overflowing the byte bound did not evict the older source")
	}
}

// TestSourceMemoDropsFailures: a source that fails to compile fails the
// same way every time and never occupies the memo.
func TestSourceMemoDropsFailures(t *testing.T) {
	for _, tc := range []struct{ src, entry string }{
		{uniqueSource("int f( {"), "f"},    // parse error
		{uniqueSource(memoSrc), "missing"}, // no such entry
	} {
		_, err1 := NewWorkload(tc.src, tc.entry)
		_, err2 := NewWorkload(tc.src, tc.entry)
		if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
			t.Fatalf("entry %q: errors %v then %v, want one error twice", tc.entry, err1, err2)
		}
		if memoHolds(t, tc.src, tc.entry) {
			t.Fatalf("entry %q: a failed compile was kept", tc.entry)
		}
	}
}
