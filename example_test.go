package hybridpart_test

import (
	"context"
	"errors"
	"fmt"

	"hybridpart"
)

// exampleSrc is a small multiply-accumulate loop in the mini-C subset: the
// kind of kernel-bearing code the methodology partitions.
const exampleSrc = `
const int N = 128;
int IN[N];
int OUT[N];
int main_fn() {
    int i;
    for (i = 0; i < N; i++) { IN[i] = (i * 7 + 3) & 255; }
    for (i = 8; i < N; i++) {
        int acc = ((IN[i] * 5 + IN[i - 1] * 3) + (IN[i - 2] * 2 + IN[i - 3] * 7))
                + ((IN[i - 4] * 9 + IN[i - 5] * 4) + (IN[i - 6] * 6 + IN[i - 7] * 8));
        OUT[i] = acc >> 5;
    }
    return OUT[N - 1];
}
`

// ExampleCompile parses, checks and lowers mini-C source into the flattened
// CDFG the methodology operates on (step 1 of the paper's flow).
func ExampleCompile() {
	app, err := hybridpart.Compile(exampleSrc, "main_fn")
	if err != nil {
		fmt.Println("compile failed:", err)
		return
	}
	fmt.Println("entry:", app.Entry())
	fmt.Println("has blocks:", app.NumBlocks() > 0)
	// Output:
	// entry: main_fn
	// has blocks: true
}

// ExampleNewWorkload walks the Workload lifecycle: compile once, run with
// profiling (the dynamic half of the paper's step 3), read the outputs
// back, and rank the kernels the partitioning engine will move.
func ExampleNewWorkload() {
	w, err := hybridpart.NewWorkload(exampleSrc, "main_fn")
	if err != nil {
		fmt.Println("compile failed:", err)
		return
	}
	result, err := w.Run()
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	fmt.Println("result:", result, "last output:", w.Data("OUT")[127])

	eng, err := hybridpart.NewEngine()
	if err != nil {
		fmt.Println("engine failed:", err)
		return
	}
	an, err := eng.Analyze(w)
	if err != nil {
		fmt.Println("analyze failed:", err)
		return
	}
	top := an.Kernels[0]
	fmt.Println("hottest kernel runs in a loop:", top.LoopDepth > 0, "freq:", top.Freq)
	// Output:
	// result: 132 last output: 132
	// hottest kernel runs in a loop: true freq: 120
}

// ExampleEngine_Partition runs the complete methodology: one Workload
// (compile + profile in a single lifecycle), one Engine built from
// functional options, and the move-by-move trajectory of steps 4–5
// streaming through the observer until the timing constraint is met.
func ExampleEngine_Partition() {
	w, err := hybridpart.NewWorkload(exampleSrc, "main_fn")
	if err != nil {
		fmt.Println("compile failed:", err)
		return
	}
	if _, err := w.Run(); err != nil { // dynamic analysis
		fmt.Println("run failed:", err)
		return
	}

	ctx := context.Background()
	loose, _ := hybridpart.NewEngine(hybridpart.WithConstraint(1 << 60))
	allFPGA, err := loose.Partition(ctx, w)
	if err != nil {
		fmt.Println("partition failed:", err)
		return
	}

	// Ask for half the all-FPGA execution time, forcing kernel moves, and
	// watch the trajectory through the observer.
	var moves []hybridpart.MoveEvent
	eng, err := hybridpart.NewEngine(
		hybridpart.WithConstraint(allFPGA.InitialCycles/2),
		hybridpart.WithObserver(func(ev hybridpart.Event) {
			if mv, ok := ev.(hybridpart.MoveEvent); ok {
				moves = append(moves, mv)
			}
		}),
	)
	if err != nil {
		fmt.Println("engine failed:", err)
		return
	}
	res, err := eng.Partition(ctx, w)
	if err != nil {
		fmt.Println("partition failed:", err)
		return
	}
	fmt.Println("constraint met:", res.Met)
	fmt.Println("observed every move:", len(moves) == len(res.Moved) && len(moves) > 0)
	fmt.Println("final move met constraint:", moves[len(moves)-1].Met)
	// Output:
	// constraint met: true
	// observed every move: true
	// final move met constraint: true
}

// ExampleResult_Pipeline overlaps the fine and coarse-grain fabrics across
// a frame stream (the paper's ongoing work): the OFDM transmitter is
// partitioned once, and its per-frame fine/coarse split feeds the
// two-stage pipeline model.
func ExampleResult_Pipeline() {
	w, err := hybridpart.BenchmarkWorkload(hybridpart.BenchOFDM, 1)
	if err != nil {
		fmt.Println("workload failed:", err)
		return
	}
	eng, err := hybridpart.NewEngine(hybridpart.WithConstraint(60000))
	if err != nil {
		fmt.Println("engine failed:", err)
		return
	}
	res, err := eng.Partition(context.Background(), w)
	if err != nil {
		fmt.Println("partition failed:", err)
		return
	}
	fmt.Printf("per-frame split: fine=%d coarse=%d comm=%d cycles\n", res.TFPGA, res.TCoarse, res.TComm)

	pm := res.Pipeline()
	fine, coarse := pm.Utilization()
	fmt.Printf("steady-state utilization: FPGA %.0f%%, CGC data-path %.0f%%\n", 100*fine, 100*coarse)
	fmt.Printf("%-8s %-12s %-12s %s\n", "frames", "sequential", "pipelined", "speedup")
	for _, n := range []int{1, 2, 10, 100, 1000} {
		fmt.Printf("%-8d %-12d %-12d %.3f\n", n, pm.Sequential(n), pm.Pipelined(n), pm.Speedup(n))
	}
	fmt.Printf("asymptotic speedup: %.3f (two-stage bound: 2.0)\n", pm.Speedup(1_000_000))
	// Output:
	// per-frame split: fine=31481 coarse=3168 comm=12960 cycles
	// steady-state utilization: FPGA 100%, CGC data-path 51%
	// frames   sequential   pipelined    speedup
	// 1        47609        47609        1.000
	// 2        95218        79090        1.204
	// 10       476090       330938       1.439
	// 100      4760900      3164228      1.505
	// 1000     47609000     31497128     1.512
	// asymptotic speedup: 1.512 (two-stage bound: 2.0)
}

// ExampleEngine_Sweep shows context cancellation mid-grid: the observer
// cancels after the first completed cell, and the sweep promptly returns
// ctx.Err() together with a partial result set holding that one cell.
func ExampleEngine_Sweep() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cells := 0
	eng, err := hybridpart.NewEngine(
		hybridpart.WithObserver(func(ev hybridpart.Event) {
			if _, ok := ev.(hybridpart.CellEvent); ok {
				cells++
				cancel() // stop the exploration after one cell
			}
		}),
	)
	if err != nil {
		fmt.Println("engine failed:", err)
		return
	}
	rs, err := eng.Sweep(ctx, hybridpart.SweepSpec{
		Benchmarks: []string{hybridpart.BenchOFDM},
		Areas:      []int{1000, 1500, 2500, 5000},
		CGCs:       []int{1, 2, 3},
		Workers:    1,
	})
	fmt.Println("cancelled:", errors.Is(err, context.Canceled))
	fmt.Println("marked partial:", rs != nil && rs.Partial)
	fmt.Println("cells retained:", len(rs.Outcomes))
	// Output:
	// cancelled: true
	// marked partial: true
	// cells retained: 1
}

// ExampleEngine_Simulate replays the OFDM transmitter's profiled trace on
// the simulated platform and checks the analytical model against it: at the
// model's own operating point (one frame, one port, no prefetch) the two
// agree cycle for cycle.
func ExampleEngine_Simulate() {
	w, err := hybridpart.BenchmarkWorkload(hybridpart.BenchOFDM, 1)
	if err != nil {
		fmt.Println("workload failed:", err)
		return
	}
	eng, err := hybridpart.NewEngine(hybridpart.WithConstraint(60000))
	if err != nil {
		fmt.Println("engine failed:", err)
		return
	}
	rep, err := eng.Simulate(context.Background(), w)
	if err != nil {
		fmt.Println("simulate failed:", err)
		return
	}
	fmt.Println("simulated cycles:", rep.TotalCycles)
	fmt.Println("model cycles:", rep.Validation.ModelFinalCycles)
	fmt.Println("exact:", rep.Validation.Exact)
	fmt.Printf("speedup: %.3f\n", rep.Speedup)
	// Output:
	// simulated cycles: 47609
	// model cycles: 47609
	// exact: true
	// speedup: 3.878
}

// ExampleEngine_PartitionEnergy partitions the OFDM transmitter against an
// energy budget instead of a timing constraint (the paper's future work),
// sweeping the budget to show the energy/moves trade-off.
func ExampleEngine_PartitionEnergy() {
	w, err := hybridpart.BenchmarkWorkload(hybridpart.BenchOFDM, 1)
	if err != nil {
		fmt.Println("workload failed:", err)
		return
	}
	partitionAt := func(budget float64) (*hybridpart.EnergyResult, error) {
		eng, err := hybridpart.NewEngine(hybridpart.WithEnergyBudget(budget))
		if err != nil {
			return nil, err
		}
		return eng.PartitionEnergy(context.Background(), w)
	}

	loose, err := partitionAt(1e18)
	if err != nil {
		fmt.Println("partition failed:", err)
		return
	}
	fmt.Printf("all-FPGA energy: %.0f units\n", loose.InitialEnergy)
	fmt.Printf("  fine=%.0f reconfig=%.0f\n\n", loose.Initial.Fine, loose.Initial.Reconfig)

	fmt.Printf("%-10s %-12s %-8s %-8s %s\n", "budget", "final", "met", "moves", "%reduction")
	var half *hybridpart.EnergyResult
	for _, frac := range []float64{0.9, 0.7, 0.5, 0.3, 0.1} {
		res, err := partitionAt(loose.InitialEnergy * frac)
		if err != nil {
			fmt.Println("partition failed:", err)
			return
		}
		if frac == 0.5 {
			half = res
		}
		fmt.Printf("%-10.0f %-12.0f %-8v %-8d %.1f\n",
			res.Budget, res.FinalEnergy, res.Met, len(res.Moved), res.ReductionPct)
	}
	fmt.Printf("\nbreakdown at 50%% budget: fine=%.0f coarse=%.0f reconfig=%.0f comm=%.0f\n",
		half.Final.Fine, half.Final.Coarse, half.Final.Reconfig, half.Final.Comm)
	// Output:
	// all-FPGA energy: 24666948 units
	//   fine=541948 reconfig=24125000
	//
	// budget     final        met      moves    %reduction
	// 22200253   12853188     true     1        47.9
	// 17266864   12853188     true     1        47.9
	// 12333474   8490852      true     2        65.6
	// 7400084    4269732      true     4        82.7
	// 2466695    445026       true     6        98.2
	//
	// breakdown at 50% budget: fine=79132 coarse=98208 reconfig=8285000 comm=28512
}
