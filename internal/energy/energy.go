// Package energy implements the paper's stated future work: "partitioning
// an application for satisfying energy consumption constraints". It models
// per-operation dynamic energy on both fabrics, reconfiguration energy and
// shared-memory transfer energy, and provides an energy-constrained variant
// of the partitioning engine that moves kernels (in the same eq. 1 order)
// until an energy budget is met.
package energy

import (
	"context"
	"errors"
	"fmt"

	"hybridpart/internal/analysis"
	"hybridpart/internal/coarsegrain"
	"hybridpart/internal/finegrain"
	"hybridpart/internal/ir"
	"hybridpart/internal/platform"
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

// Validate checks the characterization for physical sanity.
func (c Costs) Validate() error {
	for _, v := range []float64{
		c.FineALU, c.FineMul, c.FineDiv, c.FineMem,
		c.CoarseALU, c.CoarseMul, c.CoarseMem,
		c.Reconfig, c.CommPerWord, c.Sync,
	} {
		if v < 0 {
			return errors.New("energy: negative cost")
		}
	}
	if c.FineALU == 0 || c.CoarseALU == 0 {
		return errors.New("energy: zero ALU energy")
	}
	return nil
}

func (c Costs) fineOp(op ir.Op) float64 {
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

func (c Costs) coarseOp(op ir.Op) float64 {
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
	Fine     float64 // dynamic energy of FPGA-resident blocks
	Coarse   float64 // dynamic energy of moved kernels
	Reconfig float64 // FPGA reconfiguration energy
	Comm     float64 // fabric-to-fabric transfers
}

// Total returns the summed energy.
func (b Breakdown) Total() float64 { return b.Fine + b.Coarse + b.Reconfig + b.Comm }

// Config parameterizes an energy-constrained partitioning run.
type Config struct {
	Platform platform.Platform
	Costs    Costs
	// Budget is the energy constraint (same units as Costs).
	Budget float64
	// Order selects the kernel ordering (eq. 1 by default).
	Order analysis.KernelOrder
	// Edges carries the profiled transition counts for the reconfiguration
	// model.
	Edges []finegrain.EdgeFreq
	// Latencies are the function's data-path latencies on
	// Platform.Coarse, shared read-only with every other consumer of the
	// same compiled application; only their errors matter here (a kernel
	// the data-path cannot execute stays on the FPGA). Nil builds them for
	// this run.
	Latencies *coarsegrain.LatencyTable
	// OnMove, when non-nil, is called synchronously after every accepted
	// kernel move with the move just recorded, in trajectory order.
	OnMove func(Move)
}

// Move records one accepted kernel move and the system energy after it.
type Move struct {
	Block ir.BlockID
	// EnergyAfter is the total application energy after this move.
	EnergyAfter float64
}

// Result reports an energy-constrained partitioning outcome.
type Result struct {
	InitialEnergy float64 // all-FPGA
	FinalEnergy   float64
	Initial       Breakdown
	Final         Breakdown
	Moved         []ir.BlockID
	Unmappable    []ir.BlockID
	Met           bool
	Budget        float64
}

// ReductionPct returns the % energy reduction over the all-FPGA mapping.
func (r *Result) ReductionPct() float64 {
	if r.InitialEnergy == 0 {
		return 0
	}
	return 100 * (r.InitialEnergy - r.FinalEnergy) / r.InitialEnergy
}

// Evaluate computes the energy breakdown of a given fine/coarse assignment
// of t's function (moved[b] = true means block b executes on the
// coarse-grain data-path).
func Evaluate(t *ir.BlockTables, freq []uint64, moved map[ir.BlockID]bool,
	plat platform.Platform, costs Costs, edges []finegrain.EdgeFreq) (Breakdown, error) {
	var bd Breakdown
	var pm finegrain.PackedMapping
	if err := pm.Pack(t, plat.Fine, func(id ir.BlockID) bool { return !moved[id] }); err != nil {
		return bd, err
	}
	bd.Reconfig = float64(pm.Crossings(freq, edges)) * costs.Reconfig
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
		if moved[b.ID] {
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
	return bd, nil
}

// Partition runs the energy-constrained engine on the function whose block
// tables are given (shared read-only with every other consumer of the same
// compiled application): kernels move one by one (in analysis order) to the
// coarse-grain data-path until the energy budget is met. Kernels the
// data-path cannot execute are skipped. The context is checked between
// moves; cancelling it returns ctx.Err(). A nil ctx means
// context.Background().
func Partition(ctx context.Context, prog *ir.Program, tables *ir.BlockTables, rep *analysis.Report, cfg Config) (*Result, error) {
	f := tables.F
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Costs.Validate(); err != nil {
		return nil, err
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("energy: budget must be positive, got %g", cfg.Budget)
	}
	if rep == nil || len(rep.Blocks) != len(f.Blocks) {
		return nil, fmt.Errorf("energy: analysis report does not match function")
	}
	latencies := cfg.Latencies
	if latencies == nil {
		var err error
		if latencies, err = coarsegrain.BuildLatencyTableContext(ctx, prog, tables, cfg.Platform.Coarse); err != nil {
			return nil, err
		}
	} else if !latencies.Describes(f, cfg.Platform.Coarse) {
		return nil, fmt.Errorf("energy: latency table does not describe function %q on the platform's data-path", f.Name)
	}
	freq := make([]uint64, len(f.Blocks))
	for i := range rep.Blocks {
		freq[i] = rep.Blocks[i].Freq
	}

	moved := map[ir.BlockID]bool{}
	initial, err := Evaluate(tables, freq, moved, cfg.Platform, cfg.Costs, cfg.Edges)
	if err != nil {
		return nil, err
	}
	res := &Result{
		InitialEnergy: initial.Total(),
		FinalEnergy:   initial.Total(),
		Initial:       initial,
		Final:         initial,
		Budget:        cfg.Budget,
	}
	if res.InitialEnergy <= cfg.Budget {
		res.Met = true
		return res, nil
	}

	for _, k := range analysis.OrderKernels(rep, cfg.Order) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := latencies.Latency(k); err != nil {
			if errors.Is(err, coarsegrain.ErrUnmappable) {
				res.Unmappable = append(res.Unmappable, k)
				continue
			}
			return nil, err
		}
		moved[k] = true
		res.Moved = append(res.Moved, k)
		bd, err := Evaluate(tables, freq, moved, cfg.Platform, cfg.Costs, cfg.Edges)
		if err != nil {
			return nil, err
		}
		res.Final = bd
		res.FinalEnergy = bd.Total()
		if cfg.OnMove != nil {
			cfg.OnMove(Move{Block: k, EnergyAfter: res.FinalEnergy})
		}
		if res.FinalEnergy <= cfg.Budget {
			res.Met = true
			return res, nil
		}
	}
	return res, nil
}
