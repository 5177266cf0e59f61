// Package energy implements the cost model of the paper's stated future
// work: "partitioning an application for satisfying energy consumption
// constraints". It prices per-operation dynamic energy on both fabrics,
// reconfiguration energy and shared-memory transfer energy. The
// energy-constrained variant runs the paper's one move loop
// (internal/partition) with this model as its stop test: Evaluate prices
// each trajectory record's packing, and the loop stops at the first record
// within the energy budget.
package energy

import (
	"hybridpart/internal/finegrain"
	"hybridpart/internal/ir"
)

// Costs characterizes energy per event, in arbitrary consistent units
// (think pJ). Word-level operators realized in ASIC consume a fraction of
// their FPGA equivalents — the energy argument for coarse-grain fabrics.
type Costs struct {
	// Per-operation dynamic energy on the fine-grain (FPGA) fabric.
	FineALU float64
	FineMul float64
	FineDiv float64
	FineMem float64

	// Per-operation dynamic energy on the coarse-grain data-path.
	CoarseALU float64
	CoarseMul float64
	CoarseMem float64

	// Reconfig is the energy of one full FPGA reconfiguration.
	Reconfig float64
	// CommPerWord and Sync price shared-memory transfers between fabrics.
	CommPerWord float64
	Sync        float64
}

// DefaultCosts returns a characterization with the commonly cited ~5×
// FPGA-vs-ASIC dynamic energy gap and an expensive full reconfiguration.
func DefaultCosts() Costs {
	return Costs{
		FineALU: 5, FineMul: 20, FineDiv: 60, FineMem: 8,
		CoarseALU: 1, CoarseMul: 4, CoarseMem: 2,
		Reconfig: 5000, CommPerWord: 3, Sync: 6,
	}
}

func (c *Costs) fineOp(op ir.Op) float64 {
	switch ir.ClassOf(op) {
	case ir.ClassMul:
		return c.FineMul
	case ir.ClassDiv:
		return c.FineDiv
	case ir.ClassMem:
		return c.FineMem
	case ir.ClassCall:
		return 0
	default:
		return c.FineALU
	}
}

func (c *Costs) coarseOp(op ir.Op) float64 {
	switch ir.ClassOf(op) {
	case ir.ClassMul:
		return c.CoarseMul
	case ir.ClassMem:
		return c.CoarseMem
	default:
		return c.CoarseALU
	}
}

// Breakdown decomposes the application energy by source.
type Breakdown struct {
	Fine     float64 `json:"fine"`     // dynamic energy of FPGA-resident blocks
	Coarse   float64 `json:"coarse"`   // dynamic energy of moved kernels
	Reconfig float64 `json:"reconfig"` // FPGA reconfiguration energy
	Comm     float64 `json:"comm"`     // fabric-to-fabric transfers
}

// Total returns the summed energy.
func (b Breakdown) Total() float64 { return b.Fine + b.Coarse + b.Reconfig + b.Comm }

// Evaluate computes the energy breakdown of the mapping whose fine-grain
// packing is pm, a packing of t's function: a block pm does not include
// executes on the coarse-grain data-path. freq holds the profiled block
// counts and crossings the packing's reconfiguration count
// (finegrain.PackedMapping.Crossings over the profiled edges). Blocks are
// summed in order, so equal mappings give bit-identical totals.
func Evaluate(t *ir.BlockTables, freq []uint64, pm *finegrain.PackedMapping, crossings int64, costs Costs) Breakdown {
	var bd Breakdown
	bd.Reconfig = float64(crossings) * costs.Reconfig
	liveIO := t.LiveIO
	for _, b := range t.F.Blocks {
		var n uint64
		if int(b.ID) < len(freq) {
			n = freq[b.ID]
		}
		if n == 0 {
			continue
		}
		var perExec float64
		if !pm.Included[b.ID] {
			for i := range b.Instrs {
				perExec += costs.coarseOp(b.Instrs[i].Op)
			}
			bd.Coarse += perExec * float64(n)
			io := liveIO[b.ID]
			bd.Comm += float64(n) * (float64(io.In+io.Out)*costs.CommPerWord + costs.Sync)
		} else {
			for i := range b.Instrs {
				perExec += costs.fineOp(b.Instrs[i].Op)
			}
			bd.Fine += perExec * float64(n)
		}
	}
	return bd
}
