package energy_test

import (
	"context"
	"errors"
	"testing"

	"hybridpart"
)

// The energy-constrained move loop runs behind the engine; these tests drive
// it through the facade on the paper's baseline platform (A_FPGA = 1500, two
// CGCs) with the package's default energy characterization.

const loopSrc = `
int data[2048];
int f(int n) {
    int i;
    int s = 0;
    for (i = 0; i < 2048; i++) { data[i] = i * 3 + 1; }
    for (i = 0; i < n; i++) {
        int j;
        for (j = 0; j < 2048; j++) {
            s += data[j] * j + (data[j] >> 2) * (j + 1) + (data[j] & j) * (j - 3);
        }
    }
    return s;
}`

func workload(t *testing.T, src string, n int32) *hybridpart.Workload {
	t.Helper()
	w, err := hybridpart.NewWorkload(src, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(n); err != nil {
		t.Fatal(err)
	}
	return w
}

func partition(t *testing.T, ctx context.Context, w *hybridpart.Workload, budget float64, opts ...hybridpart.Option) (*hybridpart.EnergyResult, error) {
	t.Helper()
	eng, err := hybridpart.NewEngine(append(opts, hybridpart.WithEnergyBudget(budget))...)
	if err != nil {
		t.Fatal(err)
	}
	return eng.PartitionEnergy(ctx, w)
}

func TestPartitionMeetsBudget(t *testing.T) {
	w := workload(t, loopSrc, 4)
	ctx := context.Background()
	// First find the achievable range.
	loose, err := partition(t, ctx, w, 1e18)
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Met || len(loose.Moved) != 0 {
		t.Fatalf("loose budget mishandled: %+v", loose)
	}

	budget := loose.InitialEnergy * 0.7
	res, err := partition(t, ctx, w, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("70%% budget not met: final %f initial %f", res.FinalEnergy, res.InitialEnergy)
	}
	if len(res.Moved) == 0 {
		t.Fatal("no kernels moved")
	}
	if res.FinalEnergy > budget {
		t.Fatalf("final energy %f exceeds budget %f despite Met", res.FinalEnergy, budget)
	}
	if res.ReductionPct <= 0 {
		t.Fatalf("no energy reduction: %f%%", res.ReductionPct)
	}
}

func TestPartitionImpossibleBudget(t *testing.T) {
	res, err := partition(t, context.Background(), workload(t, loopSrc, 4), 1) // unreachable
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("impossible budget reported met")
	}
	if len(res.Moved) == 0 {
		t.Fatal("engine gave up without trying kernels")
	}
}

func TestDivisionKernelSkipped(t *testing.T) {
	const src = `
int data[64];
int f(int n) {
    int i;
    int s = 0;
    for (i = 0; i < n; i++) {
        int j;
        for (j = 1; j <= 64; j++) { s += data[j - 1] / j; }
    }
    return s;
}`
	res, err := partition(t, context.Background(), workload(t, src, 50), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unmappable) == 0 {
		t.Fatal("division kernel not skipped")
	}
}

func TestContextCancellationAndOnMove(t *testing.T) {
	w := workload(t, loopSrc, 4)

	// Pre-cancelled: the engine must not start.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := partition(t, dead, w, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// The event stream matches the recorded moves, and cancelling from the
	// observer stops the trajectory.
	var hooked []hybridpart.EnergyMoveEvent
	record := hybridpart.WithObserver(func(ev hybridpart.Event) {
		if m, ok := ev.(hybridpart.EnergyMoveEvent); ok {
			hooked = append(hooked, m)
		}
	})
	res, err := partition(t, context.Background(), w, 1, record) // unreachable: every candidate would move
	if err != nil {
		t.Fatal(err)
	}
	if len(hooked) == 0 || len(hooked) != len(res.Moved) {
		t.Fatalf("%d move events for %d moves", len(hooked), len(res.Moved))
	}
	for i, m := range hooked {
		if m.Block != res.Moved[i] || m.Seq != i+1 {
			t.Fatalf("event %d reported block %d (seq %d), moved %d", i, m.Block, m.Seq, res.Moved[i])
		}
	}
	if hooked[len(hooked)-1].EnergyAfter != res.FinalEnergy {
		t.Fatal("last event energy != final energy")
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	calls := 0
	stop := hybridpart.WithObserver(func(ev hybridpart.Event) {
		if _, ok := ev.(hybridpart.EnergyMoveEvent); ok {
			calls++
			cancelMid()
		}
	})
	if _, err := partition(t, ctx, w, 1, stop); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("engine kept moving after cancellation: %d moves", calls)
	}
}
