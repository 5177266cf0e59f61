package hybridpart

import (
	"context"
	"reflect"
	"sync"
	"testing"
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
	if err := dsp.platform(false).Validate(); err != nil {
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
	// A different seed is a different cache entry.
	app3, _, err := ProfileBenchmarkCached(BenchOFDM, 4)
	if err != nil {
		t.Fatal(err)
	}
	if app3 == app1 {
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
