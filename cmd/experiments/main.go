// Command experiments regenerates every table and figure of the paper's
// evaluation section on the reproduced system:
//
//	Table 1  — ordered total weights of the top-8 basic blocks (OFDM, JPEG)
//	Table 2  — OFDM partitioning results (A_FPGA × CGC-count grid)
//	Table 3  — JPEG partitioning results
//	Figure 1 — the modeled platform (architecture inventory)
//	Figure 2 — the methodology flow, traced live on a benchmark
//	Figure 3 — the fine-grain temporal-partitioning algorithm, demonstrated
//	           on the hottest kernel across an area sweep
//
// Usage:
//
//	experiments [-table N] [-figure N] [-seed S] [-ofdm-constraint C] [-jpeg-constraint C]
//
// With no flags every artifact is printed in order.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hybridpart"
)

func main() {
	table := flag.Int("table", 0, "regenerate only this table (1-3)")
	figure := flag.Int("figure", 0, "regenerate only this figure (1-3)")
	seed := flag.Uint("seed", 1, "input-vector seed")
	ofdmC := flag.Int64("ofdm-constraint", 60000, "OFDM timing constraint (FPGA cycles; the paper's value)")
	jpegC := flag.Int64("jpeg-constraint", 21000000, "JPEG timing constraint (FPGA cycles)")
	flag.Parse()

	all := *table == 0 && *figure == 0
	run := func(name string, fn func() error) {
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	if all || *figure == 1 {
		run("figure 1", figure1)
	}
	if all || *figure == 2 {
		run("figure 2", func() error { return figure2(uint32(*seed)) })
	}
	if all || *figure == 3 {
		run("figure 3", func() error { return figure3(uint32(*seed)) })
	}
	if all || *table == 1 {
		run("table 1", func() error { return table1(uint32(*seed)) })
	}
	if all || *table == 2 {
		run("table 2", func() error {
			return partitionTable("Table 2. OFDM partitioning results", hybridpart.BenchOFDM, uint32(*seed), *ofdmC)
		})
	}
	if all || *table == 3 {
		run("table 3", func() error {
			return partitionTable("Table 3. JPEG partitioning results", hybridpart.BenchJPEG, uint32(*seed), *jpegC)
		})
	}
}

func figure1() error {
	fmt.Println("== Figure 1. Generic reconfigurable platform architecture ==")
	opts := hybridpart.DefaultOptions()
	fmt.Printf(`  microprocessor  -> configures both fabrics (flow driver)
  fine-grain      -> embedded FPGA, A_FPGA=%d units, reconfig=%d cycles
  coarse-grain    -> %d CGC(s) of %dx%d nodes (MUL+ALU each), T_FPGA = %d*T_CGC
  register bank   -> %d words resident per kernel
  shared memory   -> %d cycle(s)/word, %d-cycle handoff, %d port(s)/cycle
  interconnect    -> reconfigurable steering network (row-to-row chaining)

`, opts.AFPGA, opts.ReconfigCycles, opts.NumCGCs, opts.CGCRows, opts.CGCCols,
		opts.ClockRatio, 256, opts.CommCyclesPerWord, opts.CommSyncCycles, opts.MemPorts)
	return nil
}

func figure2(seed uint32) error {
	fmt.Println("== Figure 2. Methodology flow (traced on the OFDM transmitter) ==")
	fmt.Println("  [step 1] CDFG creation: compiling + flattening ofdm_tx")
	w, err := hybridpart.BenchmarkWorkload(hybridpart.BenchOFDM, seed)
	if err != nil {
		return err
	}
	fmt.Printf("           %d basic blocks\n", w.NumBlocks())
	const constraint = 60000
	ctx := context.Background()

	fmt.Println("  [step 2] mapping to fine-grain hardware")
	loose, err := hybridpart.NewEngine(hybridpart.WithConstraint(1 << 60))
	if err != nil {
		return err
	}
	allFPGA, err := loose.Partition(ctx, w)
	if err != nil {
		return err
	}
	fmt.Printf("           all-FPGA execution: %d cycles\n", allFPGA.InitialCycles)
	if allFPGA.InitialCycles <= constraint {
		fmt.Println("           timing constraint met -> exit")
		return nil
	}
	fmt.Printf("           timing constraint (%d) violated -> analysis\n", constraint)

	// The move-by-move trajectory of steps 4+5 streams through the
	// engine's observer as it happens.
	eng, err := hybridpart.NewEngine(
		hybridpart.WithConstraint(constraint),
		hybridpart.WithObserver(func(ev hybridpart.Event) {
			if mv, ok := ev.(hybridpart.MoveEvent); ok {
				fmt.Printf("           move %d: BB %d -> coarse grain\n", mv.Seq, mv.Block)
			}
		}),
	)
	if err != nil {
		return err
	}

	fmt.Println("  [step 3] analysis: dynamic + static, kernel extraction and ordering")
	an, err := eng.Analyze(w)
	if err != nil {
		return err
	}
	top := an.Kernels
	if len(top) > 3 {
		top = top[:3]
	}
	for _, k := range top {
		fmt.Printf("           kernel BB %d: freq=%d weight=%d total=%d\n",
			k.Block, k.Freq, k.OpWeight, k.TotalWeight)
	}

	fmt.Println("  [steps 4+5] partitioning engine: move kernels until constraint met")
	res, err := eng.Partition(ctx, w)
	if err != nil {
		return err
	}
	fmt.Printf("           final: %d cycles (constraint met: %v)\n\n", res.FinalCycles, res.Met)
	return nil
}

func figure3(seed uint32) error {
	fmt.Println("== Figure 3. Fine-grain temporal partitioning (hottest OFDM kernel, area sweep) ==")
	w, err := hybridpart.BenchmarkWorkload(hybridpart.BenchOFDM, seed)
	if err != nil {
		return err
	}
	fmt.Printf("  %-8s %-12s %-14s\n", "A_FPGA", "partitions", "initial cycles")
	for _, area := range []int{768, 1000, 1500, 2500, 5000, 10000} {
		eng, err := hybridpart.NewEngine(
			hybridpart.WithArea(area),
			hybridpart.WithConstraint(1<<60),
		)
		if err != nil {
			return err
		}
		res, err := eng.Partition(context.Background(), w)
		if err != nil {
			return err
		}
		fmt.Printf("  %-8d %-12d %-14d\n", area, res.InitialPartitions, res.InitialCycles)
	}
	fmt.Println()
	return nil
}

func table1(seed uint32) error {
	fmt.Println("== Table 1. Ordered total weights of basic blocks ==")
	eng, err := hybridpart.NewEngine()
	if err != nil {
		return err
	}
	for _, bench := range []string{hybridpart.BenchOFDM, hybridpart.BenchJPEG} {
		w, err := hybridpart.BenchmarkWorkload(bench, seed)
		if err != nil {
			return err
		}
		an, err := eng.Analyze(w)
		if err != nil {
			return err
		}
		fmt.Printf("--- %s (%d basic blocks) ---\n", bench, w.NumBlocks())
		fmt.Print(an.FormatTable(8))
		fmt.Println()
	}
	return nil
}

// partitionTable regenerates one Table 2/3 grid as a thin caller of the
// design-space-exploration engine: the A_FPGA × CGC-count cross product is
// a SweepSpec, evaluated by Engine.Sweep against one shared profile.
func partitionTable(title, bench string, seed uint32, constraint int64) error {
	fmt.Printf("== %s for timing constraint of %d clock cycles ==\n", title, constraint)
	areas := []int{1500, 5000}
	ncgcs := []int{2, 3}
	eng, err := hybridpart.NewEngine()
	if err != nil {
		return err
	}
	rs, err := eng.Sweep(context.Background(), hybridpart.SweepSpec{
		Benchmarks:  []string{bench},
		Areas:       areas,
		CGCs:        ncgcs,
		Constraints: []int64{constraint},
		Seed:        seed,
	})
	if err != nil {
		return err
	}
	var cells [2][2]*hybridpart.SweepOutcome
	for ai, afpga := range areas {
		for ci, ncgc := range ncgcs {
			o := rs.Find(bench, "", afpga, ncgc, constraint)
			if o == nil {
				return fmt.Errorf("sweep missing cell A_FPGA=%d cgcs=%d", afpga, ncgc)
			}
			if o.Failed() {
				return fmt.Errorf("cell A_FPGA=%d cgcs=%d: %s", afpga, ncgc, o.Err)
			}
			cells[ai][ci] = o
		}
	}
	fmt.Printf("%-22s | %-21s | %-21s\n", "", "A_FPGA=1500", "A_FPGA=5000")
	fmt.Printf("%-22s | %-10s %-10s | %-10s %-10s\n", "", "two 2x2", "three 2x2", "two 2x2", "three 2x2")
	row := func(name string, get func(c *hybridpart.SweepOutcome) string) {
		fmt.Printf("%-22s | %-10s %-10s | %-10s %-10s\n", name,
			get(cells[0][0]), get(cells[0][1]), get(cells[1][0]), get(cells[1][1]))
	}
	row("Initial cycles", func(c *hybridpart.SweepOutcome) string { return fmt.Sprintf("%d", c.InitialCycles) })
	row("Cycles in CGC", func(c *hybridpart.SweepOutcome) string { return fmt.Sprintf("%d", c.CyclesInCGC) })
	row("BB no. moved", func(c *hybridpart.SweepOutcome) string {
		s := ""
		for i, b := range c.Moved {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%d", b)
		}
		if s == "" {
			s = "-"
		}
		return s
	})
	row("Final cycles", func(c *hybridpart.SweepOutcome) string { return fmt.Sprintf("%d", c.FinalCycles) })
	row("% cycles reduction", func(c *hybridpart.SweepOutcome) string { return fmt.Sprintf("%.1f", c.ReductionPct) })
	row("Constraint met", func(c *hybridpart.SweepOutcome) string { return fmt.Sprintf("%v", c.Met) })
	fmt.Println()
	return nil
}
