package hybridpart

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestLatencyTableSharedAcrossPlatforms partitions one shared App from
// several goroutines while they alternate two coarse-grain platforms, so the
// App's single latency-table entry is replaced over and over under load.
// Every run — closed-form, simulated objective and energy — must equal the
// serial run on the same platform. Run it under -race.
func TestLatencyTableSharedAcrossPlatforms(t *testing.T) {
	w, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	app, prof, err := w.profiled()
	if err != nil {
		t.Fatal(err)
	}
	type run func(context.Context) (any, error)
	var runs []run
	// The default data-path, and one without a register bank (every array
	// access then takes a shared-memory port, so latencies differ).
	for _, plat := range [][]Option{nil, {WithRegBank(0)}} {
		with := func(opts ...Option) *Engine { return mustEngine(t, append(append([]Option{}, plat...), opts...)...) }
		model := with(WithConstraint(60000))
		sim := with(WithConstraint(60000), WithObjective(ObjectiveSimulated), WithSimFrames(8))
		energy := with(WithEnergyBudget(1))
		runs = append(runs,
			func(ctx context.Context) (any, error) { return model.PartitionProfiled(ctx, app, prof) },
			func(ctx context.Context) (any, error) { return sim.PartitionProfiled(ctx, app, prof) },
			func(ctx context.Context) (any, error) { return energy.PartitionEnergyProfiled(ctx, app, prof) },
		)
	}
	ctx := context.Background()
	want := make([]any, len(runs))
	for i, r := range runs {
		if want[i], err = r(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(want[0], want[3]) {
		t.Fatal("both data-paths give the same closed-form result; the test cannot tell the tables apart")
	}

	const goroutines, rounds = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds*len(runs); k++ {
				// Offset each goroutine so neighbours ask for different
				// platforms at the same time.
				i := (k + g*len(runs)/2) % len(runs)
				got, err := runs[i](ctx)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("run %d: concurrent result differs from the serial one:\n got  %+v\n want %+v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The App keeps one table: the last data-path asked for.
	if _, err := mustEngine(t, WithRegBank(0), WithConstraint(60000)).PartitionProfiled(ctx, app, prof); err != nil {
		t.Fatal(err)
	}
	if got := app.latencies.Load(); got == nil || got.Coarse.RegBankWords != 0 {
		t.Fatalf("App latency entry %+v, want the bankless data-path", got)
	}
}
