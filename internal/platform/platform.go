// Package platform describes the generic hybrid reconfigurable platform of
// the paper's Figure 1: a fine-grain (embedded FPGA) block, a coarse-grain
// CGC data-path, a shared data memory and the interconnect between them,
// all characterized "in terms of timing and area" as the methodology
// requires. Every mapper and the partitioning engine are parameterized by
// these tables, which keeps the flow retargetable — the property the paper
// claims for its framework.
package platform

import (
	"fmt"

	"hybridpart/internal/ir"
)

// OpCosts characterizes the fine-grain fabric per operation class: the area
// an operator instance occupies (abstract FPGA area units, the same units as
// A_FPGA) and its latency in FPGA clock cycles.
type OpCosts struct {
	AreaALU int
	AreaMul int
	AreaDiv int
	AreaMem int

	LatALU int
	LatMul int
	LatDiv int
	LatMem int
}

// DefaultOpCosts returns the characterization used throughout the
// experiments: multipliers are 4× the area of an ALU (typical for LUT-based
// multipliers vs. adders) and take two cycles; memory ports cost as much
// logic as an ALU. The absolute scale is chosen so that the benchmark's
// hottest basic blocks straddle temporal partitions at A_FPGA = 1500 but
// fit comfortably at 5000, the regime the paper's Tables 2–3 explore.
func DefaultOpCosts() OpCosts {
	return OpCosts{
		AreaALU: 32, AreaMul: 128, AreaDiv: 256, AreaMem: 32,
		LatALU: 1, LatMul: 2, LatDiv: 8, LatMem: 1,
	}
}

// IsZero reports whether the table is the zero value, i.e. no
// characterization was supplied at all. Callers that default a zero table
// must use this helper rather than comparing against OpCosts{} inline, so
// the "unset" test is a single, documented decision point: a table with any
// field set — even a deliberately cheap one — is never mistaken for unset,
// and a genuinely all-zero table fails Platform.Validate with a precise
// diagnostic instead of being silently replaced downstream.
func (oc OpCosts) IsZero() bool { return oc == OpCosts{} }

// FineGrain characterizes the embedded FPGA block.
type FineGrain struct {
	// Area is A_FPGA: the usable area for mapped operators, already
	// discounted for routability (the paper uses ~70% of the raw fabric and
	// then reports A_FPGA ∈ {1500, 5000} directly).
	Area int
	// ReconfigCycles is the full-reconfiguration cost charged once per
	// temporal partition, in FPGA cycles ("the reconfiguration time has the
	// same value for each partition and it is added to the execution time of
	// each temporal partition").
	ReconfigCycles int
	// Regions is the number of independently reconfigurable regions the
	// fabric is split into (partial dynamic reconfiguration). 0 or 1 is the
	// paper's monolithic context: every swap replaces the whole fabric. With
	// R > 1 the area splits evenly across R regions, each region swaps in
	// RegionReconfigCycles (the full-fabric cost divided across regions, as
	// PDR bitstreams scale with region size), and temporal partitions
	// resident in different regions coexist instead of evicting each other.
	// Loads still serialize on the single configuration port.
	Regions int
	// Costs is the per-operator characterization.
	Costs OpCosts
}

// NumRegions normalizes Regions: 0 (unset) and 1 both mean one monolithic
// context.
func (f FineGrain) NumRegions() int {
	if f.Regions <= 1 {
		return 1
	}
	return f.Regions
}

// RegionArea is the usable area of one reconfigurable region — the packing
// bound for a single temporal partition. With one region it is Area itself.
func (f FineGrain) RegionArea() int { return f.Area / f.NumRegions() }

// RegionReconfigCycles is the cost of swapping one region, in FPGA cycles:
// the full-fabric cost split across regions (rounded up), since a partial
// bitstream is proportionally smaller. With one region it is ReconfigCycles.
func (f FineGrain) RegionReconfigCycles() int {
	r := f.NumRegions()
	return (f.ReconfigCycles + r - 1) / r
}

// Area returns the fine-grain area of one operator of class c. Calls have
// no fine-grain realization and report zero (the standard flow inlines them
// away before mapping).
func (oc OpCosts) Area(c ir.Class) int {
	switch c {
	case ir.ClassMul:
		return oc.AreaMul
	case ir.ClassDiv:
		return oc.AreaDiv
	case ir.ClassMem:
		return oc.AreaMem
	case ir.ClassCall:
		return 0
	default:
		return oc.AreaALU
	}
}

// Latency returns the fine-grain latency (FPGA cycles) of class c.
func (oc OpCosts) Latency(c ir.Class) int {
	switch c {
	case ir.ClassMul:
		return oc.LatMul
	case ir.ClassDiv:
		return oc.LatDiv
	case ir.ClassMem:
		return oc.LatMem
	case ir.ClassCall:
		return 0
	default:
		return oc.LatALU
	}
}

// CoarseGrain characterizes the CGC data-path of the FPL'04 companion work:
// NumCGCs arrays of Rows×Cols nodes (each node a multiplier + ALU, one
// active per cycle), a steering interconnect that lets data flow row to row
// within a single T_CGC cycle (unit execution delay per configured CGC), a
// register bank, and shared-memory ports.
type CoarseGrain struct {
	NumCGCs int
	Rows    int // n: chained operations executed within one cycle
	Cols    int // m: independent chains per CGC
	// MemPorts is the number of shared-data-memory transfers the data-path
	// can issue per CGC cycle.
	MemPorts int
	// ClockRatio is T_FPGA / T_CGC; the paper assumes 3 ("a rather moderate
	// assumption for the performance gain of an ASIC technology compared to
	// an FPGA one").
	ClockRatio int
	// RegBankWords sizes the data-path's register bank. Arrays no larger
	// than this live in the bank while a kernel executes, so their
	// loads/stores are register-file accesses routed by the interconnect
	// (no shared-memory port, no extra cycle); larger arrays stream through
	// the MemPorts.
	RegBankWords int
}

// Comm characterizes fine↔coarse communication through the shared data
// memory. Arrays live in the shared memory and are visible to both fabrics;
// what crosses on every kernel invocation are its scalar live-ins/live-outs
// plus a fixed synchronization cost.
type Comm struct {
	// CyclesPerWord is the FPGA-cycle cost of moving one 32-bit scalar
	// through the shared memory.
	CyclesPerWord int
	// SyncCycles is the fixed per-invocation handoff cost (control transfer
	// between the fabrics).
	SyncCycles int
}

// Platform bundles the full characterization of the hybrid architecture.
type Platform struct {
	Fine   FineGrain
	Coarse CoarseGrain
	Comm   Comm
}

// Default returns the baseline platform used by the experiments:
// A_FPGA = 1500, two 2×2 CGCs, T_FPGA = 3·T_CGC.
func Default() Platform {
	return Paper(1500, 2)
}

// Paper returns the platform of the paper's evaluation for a given A_FPGA
// (1500 or 5000 in Tables 2–3) and CGC count (two or three 2×2 CGCs).
func Paper(afpga, numCGCs int) Platform {
	return Platform{
		Fine: FineGrain{
			Area:           afpga,
			ReconfigCycles: 32,
			Costs:          DefaultOpCosts(),
		},
		Coarse: CoarseGrain{
			NumCGCs:      numCGCs,
			Rows:         2,
			Cols:         2,
			MemPorts:     2,
			ClockRatio:   3,
			RegBankWords: 256,
		},
		Comm: Comm{CyclesPerWord: 1, SyncCycles: 2},
	}
}

// Validate checks that every parameter is physically meaningful.
func (p Platform) Validate() error {
	f := p.Fine
	if f.Area <= 0 {
		return fmt.Errorf("platform: A_FPGA must be positive, got %d", f.Area)
	}
	if f.ReconfigCycles < 0 {
		return fmt.Errorf("platform: negative reconfiguration cost")
	}
	if f.Regions < 0 {
		return fmt.Errorf("platform: regions must be non-negative, got %d", f.Regions)
	}
	c := f.Costs
	for _, v := range []struct {
		name string
		val  int
	}{
		{"AreaALU", c.AreaALU}, {"AreaMul", c.AreaMul}, {"AreaDiv", c.AreaDiv}, {"AreaMem", c.AreaMem},
		{"LatALU", c.LatALU}, {"LatMul", c.LatMul}, {"LatDiv", c.LatDiv}, {"LatMem", c.LatMem},
	} {
		if v.val <= 0 {
			return fmt.Errorf("platform: %s must be positive, got %d", v.name, v.val)
		}
	}
	maxArea := c.AreaALU
	for _, a := range []int{c.AreaMul, c.AreaDiv, c.AreaMem} {
		if a > maxArea {
			maxArea = a
		}
	}
	if maxArea > f.Area {
		return fmt.Errorf("platform: largest operator (%d units) exceeds A_FPGA (%d)", maxArea, f.Area)
	}
	if ra := f.RegionArea(); maxArea > ra {
		return fmt.Errorf("platform: largest operator (%d units) exceeds the per-region area (%d = A_FPGA %d / %d regions)",
			maxArea, ra, f.Area, f.NumRegions())
	}
	cg := p.Coarse
	if cg.NumCGCs <= 0 || cg.Rows <= 0 || cg.Cols <= 0 {
		return fmt.Errorf("platform: CGC data-path must have positive dimensions (%d of %dx%d)",
			cg.NumCGCs, cg.Rows, cg.Cols)
	}
	if cg.MemPorts <= 0 {
		return fmt.Errorf("platform: coarse-grain fabric needs at least one memory port")
	}
	if cg.RegBankWords < 0 {
		return fmt.Errorf("platform: negative register bank size")
	}
	if cg.ClockRatio <= 0 {
		return fmt.Errorf("platform: clock ratio must be positive, got %d", cg.ClockRatio)
	}
	if p.Comm.CyclesPerWord < 0 || p.Comm.SyncCycles < 0 {
		return fmt.Errorf("platform: negative communication cost")
	}
	return nil
}

// String summarizes the platform for reports (Figure 1's components).
func (p Platform) String() string {
	if r := p.Fine.NumRegions(); r > 1 {
		return fmt.Sprintf(
			"hybrid platform: FPGA{A=%d units, %d regions of %d, reconfig=%d cyc/region} + CGC{%d x %dx%d, Tfpga=%d*Tcgc, %d mem ports} + shared-mem{%d cyc/word, sync %d}",
			p.Fine.Area, r, p.Fine.RegionArea(), p.Fine.RegionReconfigCycles(),
			p.Coarse.NumCGCs, p.Coarse.Rows, p.Coarse.Cols, p.Coarse.ClockRatio, p.Coarse.MemPorts,
			p.Comm.CyclesPerWord, p.Comm.SyncCycles)
	}
	return fmt.Sprintf(
		"hybrid platform: FPGA{A=%d units, reconfig=%d cyc} + CGC{%d x %dx%d, Tfpga=%d*Tcgc, %d mem ports} + shared-mem{%d cyc/word, sync %d}",
		p.Fine.Area, p.Fine.ReconfigCycles,
		p.Coarse.NumCGCs, p.Coarse.Rows, p.Coarse.Cols, p.Coarse.ClockRatio, p.Coarse.MemPorts,
		p.Comm.CyclesPerWord, p.Comm.SyncCycles)
}
