package hybridpart

import (
	"hybridpart/internal/energy"
	"hybridpart/internal/ir"
	"hybridpart/internal/pipeline"
)

// PipelineModel is the frame-level pipelining extension (the paper's
// ongoing work): two-stage overlap of the fine and coarse-grain fabrics
// across a frame stream.
type PipelineModel = pipeline.Model

// Pipeline derives the per-frame pipeline model from a partitioning result,
// treating one profiled run as one frame.
func (r *Result) Pipeline() PipelineModel {
	return PipelineModel{TFine: r.TFPGA, TCoarse: r.TCoarse, TComm: r.TComm}
}

// EnergyBreakdown decomposes application energy by source (arbitrary
// consistent units; see internal/energy for the characterization): Fine
// for the FPGA-resident blocks, Coarse for the moved kernels, Reconfig for
// FPGA reconfiguration and Comm for fabric-to-fabric transfers. Total sums
// them.
type EnergyBreakdown = energy.Breakdown

// EnergyResult reports an energy-constrained partitioning run (the paper's
// future work). Its JSON encoding is the body of POST /v1/partition-energy.
type EnergyResult struct {
	InitialEnergy float64         `json:"initial_energy"`
	FinalEnergy   float64         `json:"final_energy"`
	Initial       EnergyBreakdown `json:"initial"`
	Final         EnergyBreakdown `json:"final"`
	Budget        float64         `json:"budget"`
	Met           bool            `json:"met"`
	// ReductionPct is the % energy reduction over the all-FPGA mapping, 0
	// when InitialEnergy is 0.
	ReductionPct float64 `json:"reduction_pct"`
	Moved        []int   `json:"moved,omitempty"`
	Unmappable   []int   `json:"unmappable,omitempty"`
}

// reductionPct is the % reduction from initial to final cycles or energy,
// 0 on a zero initial value.
func reductionPct(initial, final float64) float64 {
	if initial == 0 {
		return 0
	}
	return 100 * (initial - final) / initial
}

// blockIDsToInts converts block ids to the facade's plain ints (nil when
// there are none).
func blockIDsToInts(ids []ir.BlockID) []int {
	var out []int
	for _, b := range ids {
		out = append(out, int(b))
	}
	return out
}
