package hybridpart

import (
	"hybridpart/internal/ir"
	"hybridpart/internal/pipeline"
)

// PipelineModel exposes the frame-level pipelining extension (the paper's
// ongoing work): two-stage overlap of the fine and coarse-grain fabrics
// across a frame stream.
type PipelineModel struct {
	m pipeline.Model
}

// Pipeline derives the per-frame pipeline model from a partitioning result,
// treating one profiled run as one frame.
func (r *Result) Pipeline() PipelineModel {
	return PipelineModel{m: pipeline.Model{TFine: r.TFPGA, TCoarse: r.TCoarse, TComm: r.TComm}}
}

// Sequential returns the mutually-exclusive execution time for n frames.
func (p PipelineModel) Sequential(n int) int64 { return p.m.Sequential(n) }

// Pipelined returns the overlapped execution time for n frames.
func (p PipelineModel) Pipelined(n int) int64 { return p.m.Pipelined(n) }

// Speedup returns Sequential/Pipelined for n frames (bounded by 2×).
func (p PipelineModel) Speedup(n int) float64 { return p.m.Speedup(n) }

// Utilization returns the steady-state busy fractions (fine, coarse).
func (p PipelineModel) Utilization() (fine, coarse float64) { return p.m.Utilization() }

// Report formats a frame-sweep comparison table.
func (p PipelineModel) Report(frames []int) string { return p.m.Report(frames) }

// EnergyBreakdown decomposes application energy by source (arbitrary
// consistent units; see internal/energy for the characterization).
type EnergyBreakdown struct {
	Fine     float64
	Coarse   float64
	Reconfig float64
	Comm     float64
}

// Total returns the summed energy.
func (b EnergyBreakdown) Total() float64 { return b.Fine + b.Coarse + b.Reconfig + b.Comm }

// EnergyResult reports an energy-constrained partitioning run (the paper's
// future work).
type EnergyResult struct {
	InitialEnergy float64
	FinalEnergy   float64
	Initial       EnergyBreakdown
	Final         EnergyBreakdown
	Budget        float64
	Met           bool
	Moved         []int
	Unmappable    []int
}

// ReductionPct returns the % energy reduction over the all-FPGA mapping.
func (r *EnergyResult) ReductionPct() float64 {
	if r.InitialEnergy == 0 {
		return 0
	}
	return 100 * (r.InitialEnergy - r.FinalEnergy) / r.InitialEnergy
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
