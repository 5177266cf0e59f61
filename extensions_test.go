package hybridpart

import (
	"context"
	"strings"
	"testing"
)

func partitionFIROneMove(t *testing.T) *Result {
	t.Helper()
	app, prof := compileFIR(t)
	return partitionWith(t, app, prof, WithConstraint(1), withMaxMoves(1))
}

func TestEnergyBreakdownTotal(t *testing.T) {
	b := EnergyBreakdown{Fine: 1.5, Coarse: 2.25, Reconfig: 0.5, Comm: 0.75}
	if got := b.Total(); got != 5 {
		t.Fatalf("Total() = %v, want 5", got)
	}
	if (EnergyBreakdown{}).Total() != 0 {
		t.Fatal("zero breakdown has nonzero total")
	}
}

func TestEnergyReductionPctEdgeCases(t *testing.T) {
	r := &EnergyResult{InitialEnergy: 0, FinalEnergy: 0}
	if r.ReductionPct() != 0 {
		t.Fatal("zero initial energy must report 0% reduction, not NaN")
	}
	r = &EnergyResult{InitialEnergy: 200, FinalEnergy: 50}
	if got := r.ReductionPct(); got != 75 {
		t.Fatalf("ReductionPct() = %v, want 75", got)
	}
}

func TestPartitionEnergyInfeasibleBudget(t *testing.T) {
	// A budget no partitioning can reach: the engine reports best effort
	// with Met == false instead of erroring.
	res, err := mustEngine(t, WithEnergyBudget(0.001)).PartitionEnergy(context.Background(), firWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatalf("absurd budget reported met: %+v", res)
	}
	if res.FinalEnergy > res.InitialEnergy {
		t.Fatalf("energy increased: %v -> %v", res.InitialEnergy, res.FinalEnergy)
	}
	if len(res.Moved) == 0 {
		t.Fatal("engine gave up without trying kernels")
	}

	// The data-path cannot divide: a division kernel stays on the FPGA and
	// is reported unmappable while the engine tries every candidate.
	w, err := NewWorkload(`
int data[64];
int main_fn() {
    int i;
    int s = 0;
    for (i = 0; i < 50; i++) {
        int j;
        for (j = 1; j <= 64; j++) { s += data[j - 1] / j; }
    }
    return s;
}`, "main_fn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	div, err := mustEngine(t, WithEnergyBudget(0.001)).PartitionEnergy(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(div.Unmappable) == 0 || div.Met {
		t.Fatalf("division kernel not reported unmappable: %+v", div)
	}
}

func TestPipelineModelProperties(t *testing.T) {
	pm := partitionFIROneMove(t).Pipeline()

	if pm.Sequential(0) != 0 || pm.Pipelined(0) != 0 {
		t.Fatal("zero frames must cost zero cycles")
	}
	// Sequential grows linearly; pipelined never exceeds it.
	prevSeq, prevPipe := int64(0), int64(0)
	for _, n := range []int{1, 2, 5, 10, 100} {
		seq, pipe := pm.Sequential(n), pm.Pipelined(n)
		if seq < prevSeq || pipe < prevPipe {
			t.Fatalf("frame sweep not monotone at n=%d", n)
		}
		if pipe > seq {
			t.Fatalf("pipelined (%d) slower than sequential (%d) at n=%d", pipe, seq, n)
		}
		prevSeq, prevPipe = seq, pipe
	}
	// Two-stage overlap bounds the speedup by 2x.
	if s := pm.Speedup(1000); s < 1 || s > 2 {
		t.Fatalf("speedup %v outside [1,2]", s)
	}
}

func TestPipelineUtilization(t *testing.T) {
	pm := partitionFIROneMove(t).Pipeline()
	fine, coarse := pm.Utilization()
	for _, u := range []float64{fine, coarse} {
		if u < 0 || u > 1 {
			t.Fatalf("utilization outside [0,1]: fine=%v coarse=%v", fine, coarse)
		}
	}
	// One of the fabrics is the bottleneck stage and stays saturated.
	if fine != 1 && coarse != 1 {
		t.Fatalf("no saturated stage: fine=%v coarse=%v", fine, coarse)
	}
}

func TestPipelineReport(t *testing.T) {
	pm := partitionFIROneMove(t).Pipeline()
	rep := pm.Report([]int{1, 10, 100})
	for _, want := range []string{"speedup", "1", "10", "100"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}
