// Package partition implements the paper's partitioning engine (step 4 of
// Figure 2): kernels — the critical basic blocks ordered by the analysis
// step — move one by one from the fine-grain FPGA to the coarse-grain CGC
// data-path; after each move the total execution time
//
//	t_total = t_FPGA + t_coarse + t_comm        (eq. 2)
//
// is recomputed from the two mapping procedures (eqs. 3 and 4) and the
// shared-memory communication model, until the timing constraint is met.
// The fine-grain side is re-mapped after every move (Figure 2 iterates the
// "map to fine-grain hardware" box), using the packed temporal-partitioning
// model: the vacated area lets the remaining blocks share fewer
// configurations.
package partition

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"hybridpart/internal/analysis"
	"hybridpart/internal/coarsegrain"
	"hybridpart/internal/finegrain"
	"hybridpart/internal/ir"
	"hybridpart/internal/obs"
	"hybridpart/internal/platform"
)

// Config parameterizes one partitioning run.
type Config struct {
	// Platform characterizes both reconfigurable fabrics (Figure 1).
	Platform platform.Platform
	// Constraint is the timing constraint in FPGA clock cycles ("the clock
	// cycle period is set to the clock period of the fine-grain hardware").
	Constraint int64
	// Order selects the kernel ordering; the paper uses eq. 1 total weight.
	Order analysis.KernelOrder
	// Edges carries the profiled control-flow transition counts used by the
	// reconfiguration model (empty = only the initial configuration is
	// charged).
	Edges []finegrain.EdgeFreq
	// Tables are the function's mapping-independent block tables (DFGs,
	// level order, live-in/out footprints), shared read-only with every
	// other consumer of the same compiled application; nil builds them for
	// this run.
	Tables *ir.BlockTables
	// Latencies are the function's per-block data-path latencies on
	// Platform.Coarse (one list schedule per block), shared read-only like
	// Tables; nil builds them for this run.
	Latencies *coarsegrain.LatencyTable
	// MaxMoves bounds the number of kernels moved (0 = all candidates).
	MaxMoves int
	// SkipNonImproving, when set, rejects moves that increase t_total
	// (communication overhead exceeding the acceleration gain). The paper's
	// engine moves unconditionally; this switch exists for the ablation
	// benches.
	SkipNonImproving bool
	// OnMove, when non-nil, is called synchronously after every accepted
	// kernel move with the move just recorded. It runs on the engine's own
	// goroutine, so callbacks observe moves in trajectory order.
	OnMove func(Move)

	// Objective selects the move-loop objective. Under ObjectiveSimulated
	// the loop walks the full trajectory (ignoring the constraint-met early
	// exit), scores every prefix with SimCost and keeps the mapping with the
	// minimal simulated makespan.
	Objective Objective
	// RerankK keeps the closed-form loop but re-scores the k trajectory
	// prefixes with the best model t_total by simulation, returning the one
	// with the minimal simulated makespan (0 = off, -1 = all prefixes, which
	// is equivalent to ObjectiveSimulated). Mutually exclusive with
	// ObjectiveSimulated.
	RerankK int
	// SimCost scores a candidate moved-set by its simulated makespan in FPGA
	// cycles. Required when Objective is ObjectiveSimulated or RerankK is
	// non-zero; the engine facade injects the co-simulator here, which keeps
	// the move loop independent of internal/sim.
	SimCost func(ctx context.Context, moved []ir.BlockID) (int64, error)
	// SimCostBatch, when non-nil, scores a whole slate of candidate
	// moved-sets at once and takes precedence over per-candidate SimCost
	// calls in the argmin pass. The scorer may evaluate candidates
	// concurrently and may prune any candidate it can prove is not the
	// argmin (bounded below above some fully scored candidate); a pruned
	// entry carries no cycle count and is skipped by the selection. The
	// returned slice must have one entry per candidate, index-aligned.
	SimCostBatch func(ctx context.Context, candidates [][]ir.BlockID) ([]SimScore, error)
}

// SimScore is one candidate's entry in a SimCostBatch result: either its
// simulated makespan in FPGA cycles, or Pruned — the scorer proved the
// candidate strictly worse than another candidate it fully scored, so the
// makespan was never computed and the candidate cannot be the argmin.
type SimScore struct {
	Cycles int64
	Pruned bool
}

// Move records one accepted kernel move and the resulting system state.
type Move struct {
	Block ir.BlockID
	// CGCCycles is the kernel's per-execution latency on the data-path in
	// T_CGC cycles.
	CGCCycles int64
	// TotalAfter is t_total (FPGA cycles) after this move.
	TotalAfter int64
}

// Result is the outcome of a partitioning run, mirroring the rows of the
// paper's Tables 2 and 3.
type Result struct {
	Func       string
	Constraint int64

	// InitialCycles is the all-FPGA execution time (first row of the
	// tables); Met reports whether the constraint was satisfied.
	InitialCycles int64
	Met           bool

	// InitialPartitions is the number of temporal partitions (configuration
	// bit-streams) of the all-FPGA mapping.
	InitialPartitions int

	// Moved lists the blocks accelerated on the CGC data-path, in move
	// order (fourth row); Moves carries the per-move details.
	Moved []ir.BlockID
	Moves []Move

	// FinalCycles is t_total after partitioning (fifth row); TFPGA,
	// TCoarse and TComm are its eq. 2 components, all in FPGA cycles.
	FinalCycles int64
	TFPGA       int64
	TCoarse     int64
	TComm       int64

	// CyclesInCGC is the cycles spent executing the moved kernels on the
	// data-path, expressed in FPGA-cycle units (third row of the tables).
	CyclesInCGC int64

	// Unmappable lists kernels the CGC cannot execute (divisions); they
	// stay on the FPGA.
	Unmappable []ir.BlockID

	// Skipped lists kernels rejected by SkipNonImproving.
	Skipped []ir.BlockID

	// Objective echoes the configured move-loop objective.
	Objective Objective
	// SimulatedCycles is the simulated makespan (FPGA cycles) of the chosen
	// mapping when the objective or rerank consulted the simulator; 0 when
	// the run was purely closed-form.
	SimulatedCycles int64
	// SimScored counts the candidate mappings scored by SimCost.
	SimScored int
}

// ReductionPct returns the % cycles reduction over the all-FPGA solution
// (last row of Tables 2–3).
func (r *Result) ReductionPct() float64 {
	if r.InitialCycles == 0 {
		return 0
	}
	return 100 * float64(r.InitialCycles-r.FinalCycles) / float64(r.InitialCycles)
}

// ErrInfeasible reports that a mapping step failed outright (for example an
// operator wider than A_FPGA).
var ErrInfeasible = errors.New("partition: mapping infeasible")

// Partition runs the engine on the flat function f of prog using the
// analysis report rep (which must describe f). The context is checked
// between kernel moves: cancelling it makes the engine return ctx.Err()
// without finishing the trajectory. A nil ctx means context.Background().
func Partition(ctx context.Context, prog *ir.Program, f *ir.Function, rep *analysis.Report, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.Constraint <= 0 {
		return nil, fmt.Errorf("partition: timing constraint must be positive, got %d", cfg.Constraint)
	}
	if rep == nil || len(rep.Blocks) != len(f.Blocks) {
		return nil, fmt.Errorf("partition: analysis report does not match function")
	}
	if cfg.RerankK < -1 {
		return nil, fmt.Errorf("partition: rerank k must be -1 (all), 0 (off) or positive, got %d", cfg.RerankK)
	}
	if cfg.RerankK != 0 && cfg.Objective == ObjectiveSimulated {
		return nil, fmt.Errorf("partition: rerank and the simulated objective are mutually exclusive (rerank already ends with a simulated selection)")
	}
	// simSelect runs move selection on simulated makespans: the loop walks
	// the whole trajectory and a simulation-scored argmin pass picks the
	// winning prefix afterwards.
	simSelect := cfg.Objective == ObjectiveSimulated || cfg.RerankK != 0
	if simSelect && cfg.SimCost == nil {
		return nil, fmt.Errorf("partition: objective %v (rerank %d) needs a SimCost evaluator", cfg.Objective, cfg.RerankK)
	}

	tables := cfg.Tables
	if tables == nil {
		tables = ir.BuildBlockTables(f)
	} else if tables.F != f {
		return nil, fmt.Errorf("partition: block tables describe function %q, not %q", tables.F.Name, f.Name)
	}
	latencies := cfg.Latencies
	if latencies == nil {
		latencies = coarsegrain.BuildLatencyTable(prog, tables, cfg.Platform.Coarse)
	} else if !latencies.Describes(f, cfg.Platform.Coarse) {
		return nil, fmt.Errorf("partition: latency table does not describe function %q on the platform's data-path", f.Name)
	}

	plat := cfg.Platform
	freq := make([]uint64, len(f.Blocks))
	for i := range rep.Blocks {
		freq[i] = rep.Blocks[i].Freq
	}

	// Step 2: map everything to the fine-grain hardware. pm always holds the
	// packing of the current moved set: all-FPGA here, repacked after every
	// accepted move.
	var pm finegrain.PackedMapping
	if err := pm.Pack(tables, plat.Fine, nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	res := &Result{Func: f.Name, Constraint: cfg.Constraint, Objective: cfg.Objective}
	// One span brackets the whole engine run — the move loop plus, under
	// simulation-scored selection, the argmin pass. Like every span below it
	// ends on error returns too, so a failed run still shows in its trace.
	ctx, loopSpan := obs.Start(ctx, "partition.moveloop", obs.Int("kernels_total", len(f.Blocks)))
	defer func() {
		loopSpan.Set(obs.Int("moves", len(res.Moved)), obs.Bool("met", res.Met), obs.Int("sim_scored", res.SimScored))
		loopSpan.End()
	}()
	res.InitialCycles = pm.TotalCycles(freq, cfg.Edges, plat.Fine.ReconfigCycles)
	res.InitialPartitions = pm.NumPartitions
	res.FinalCycles = res.InitialCycles
	res.TFPGA = res.InitialCycles
	if res.InitialCycles <= cfg.Constraint && !simSelect {
		// Timing met by the all-FPGA solution: the methodology exits before
		// the analysis/partitioning steps. Simulation-scored selection keeps
		// walking — moving kernels can still lower the simulated makespan
		// even when the closed form is already under the constraint.
		res.Met = true
		return res, nil
	}

	// Step 3 products: ordered kernels and live-in/out footprints.
	kernels := analysis.OrderKernels(rep, cfg.Order)
	liveIO := tables.LiveIO

	moved := make([]bool, len(f.Blocks))
	var coarseCGCCycles int64 // Σ latency×freq in T_CGC cycles (eq. 3)
	var commCycles int64
	ratio := int64(plat.Coarse.ClockRatio)

	evalTotal := func() (tFPGA, tCoarse, tComm, total int64, err error) {
		if err := pm.Pack(tables, plat.Fine, func(id ir.BlockID) bool { return !moved[id] }); err != nil {
			return 0, 0, 0, 0, err
		}
		tFPGA = pm.TotalCycles(freq, cfg.Edges, plat.Fine.ReconfigCycles)
		tCoarse = (coarseCGCCycles + ratio - 1) / ratio
		tComm = commCycles
		return tFPGA, tCoarse, tComm, tFPGA + tCoarse + tComm, nil
	}

	// Step 4: move kernels one by one until the constraint is met (under
	// simulation-scored selection: until the candidates run out, recording
	// the eq. 2 components of every prefix for the argmin pass).
	type prefix struct{ tFPGA, tCoarse, tComm, total int64 }
	prefixes := []prefix{{tFPGA: res.InitialCycles, total: res.InitialCycles}}
	// tryMove attempts to move kernel k under its own "move" span and
	// reports whether the constraint is now met.
	tryMove := func(k ir.BlockID) (met bool, err error) {
		_, span := obs.Start(ctx, "move", obs.Int("block", int(k)))
		defer span.End()
		lat, err := latencies.Latency(k)
		if err != nil {
			if errors.Is(err, coarsegrain.ErrUnmappable) {
				res.Unmappable = append(res.Unmappable, k)
				span.Set(obs.String("outcome", "unmappable"))
				return false, nil
			}
			return false, err
		}
		io := liveIO[k]
		moveComm := int64(freq[k]) * (int64(io.In+io.Out)*int64(plat.Comm.CyclesPerWord) + int64(plat.Comm.SyncCycles))
		moveCGC := lat * int64(freq[k])

		if cfg.SkipNonImproving {
			// Does the move pay for itself? Compare the kernel's current
			// FPGA cost (pm still packs the current moved set) against its
			// coarse cost plus communication.
			fpgaCost := pm.PerBlockCycles[k] * int64(freq[k])
			coarseCost := (moveCGC+ratio-1)/ratio + moveComm
			if coarseCost >= fpgaCost {
				res.Skipped = append(res.Skipped, k)
				span.Set(obs.String("outcome", "skipped"))
				return false, nil
			}
		}

		moved[k] = true
		coarseCGCCycles += moveCGC
		commCycles += moveComm
		res.Moved = append(res.Moved, k)

		tFPGA, tCoarse, tComm, total, err := evalTotal()
		if err != nil {
			return false, err
		}
		res.TFPGA, res.TCoarse, res.TComm = tFPGA, tCoarse, tComm
		res.FinalCycles = total
		res.CyclesInCGC = tCoarse
		prefixes = append(prefixes, prefix{tFPGA: tFPGA, tCoarse: tCoarse, tComm: tComm, total: total})
		mv := Move{Block: k, CGCCycles: lat, TotalAfter: total}
		res.Moves = append(res.Moves, mv)
		if cfg.OnMove != nil {
			cfg.OnMove(mv)
		}
		span.Set(obs.String("outcome", "moved"), obs.Int64("t_total", total))
		return total <= cfg.Constraint && !simSelect, nil
	}
	for _, k := range kernels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cfg.MaxMoves > 0 && len(res.Moved) >= cfg.MaxMoves {
			break
		}
		met, err := tryMove(k)
		if err != nil {
			return nil, err
		}
		if met {
			res.Met = true
			return res, nil
		}
	}
	if !simSelect {
		// Candidates exhausted without satisfying the constraint: report the
		// best-effort partitioning (Met stays false).
		return res, nil
	}

	// Simulation-scored selection: score the candidate prefixes in prefix
	// order and keep the first one with the minimal simulated makespan.
	// ObjectiveSimulated scores every prefix; rerank scores the RerankK
	// prefixes with the best model t_total (so rerank with k = -1 or
	// k >= len(prefixes) degenerates to the full simulated objective —
	// identical candidate set, identical traversal order and tie-break).
	candidate := make([]bool, len(prefixes))
	if cfg.Objective == ObjectiveSimulated || cfg.RerankK < 0 || cfg.RerankK >= len(prefixes) {
		for i := range candidate {
			candidate[i] = true
		}
	} else {
		order := make([]int, len(prefixes))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return prefixes[order[a]].total < prefixes[order[b]].total })
		for _, i := range order[:cfg.RerankK] {
			candidate[i] = true
		}
	}
	argCtx, argSpan := obs.Start(ctx, "sim.argmin", obs.Int("prefixes", len(prefixes)))
	ctx = argCtx
	defer argSpan.End()
	bestIdx, bestSim := -1, int64(0)
	if cfg.SimCostBatch != nil {
		// Batch path: hand the scorer the whole slate so it can order it
		// by bound and prune. Selection stays in candidate-index order
		// with a strict < comparison, so ties break on the lowest trajectory
		// index exactly like the serial loop — a pruned candidate is by
		// contract strictly worse than some scored one, so skipping it never
		// changes the argmin.
		idxs := make([]int, 0, len(prefixes))
		cands := make([][]ir.BlockID, 0, len(prefixes))
		for i := range prefixes {
			if candidate[i] {
				idxs = append(idxs, i)
				cands = append(cands, res.Moved[:i])
			}
		}
		scores, err := cfg.SimCostBatch(ctx, cands)
		if err != nil {
			return nil, err
		}
		if len(scores) != len(cands) {
			return nil, fmt.Errorf("partition: SimCostBatch returned %d scores for %d candidates", len(scores), len(cands))
		}
		for k, i := range idxs {
			if scores[k].Pruned {
				continue
			}
			res.SimScored++
			if bestIdx < 0 || scores[k].Cycles < bestSim {
				bestIdx, bestSim = i, scores[k].Cycles
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("partition: SimCostBatch pruned every candidate")
		}
	} else {
		for i := range prefixes {
			if !candidate[i] {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sim, err := cfg.SimCost(ctx, res.Moved[:i])
			if err != nil {
				return nil, err
			}
			res.SimScored++
			if bestIdx < 0 || sim < bestSim {
				bestIdx, bestSim = i, sim
			}
		}
	}
	argSpan.Set(obs.Int("scored", res.SimScored), obs.Int("best_prefix", bestIdx))
	best := prefixes[bestIdx]
	res.Moved = res.Moved[:bestIdx]
	res.Moves = res.Moves[:bestIdx]
	res.TFPGA, res.TCoarse, res.TComm = best.tFPGA, best.tCoarse, best.tComm
	res.FinalCycles = best.total
	res.CyclesInCGC = best.tCoarse
	res.Met = best.total <= cfg.Constraint
	res.SimulatedCycles = bestSim
	return res, nil
}

// FormatTable renders the result in the layout of the paper's Tables 2–3.
func (r *Result) FormatTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Initial cycles (all-FPGA): %d\n", r.InitialCycles)
	fmt.Fprintf(&sb, "Timing constraint:         %d\n", r.Constraint)
	fmt.Fprintf(&sb, "Cycles in CGC:             %d\n", r.CyclesInCGC)
	ids := make([]string, len(r.Moved))
	for i, b := range r.Moved {
		ids[i] = fmt.Sprintf("%d", b)
	}
	fmt.Fprintf(&sb, "BB no. moved:              %s\n", strings.Join(ids, ", "))
	fmt.Fprintf(&sb, "Final cycles:              %d\n", r.FinalCycles)
	fmt.Fprintf(&sb, "%% cycles reduction:        %.1f\n", r.ReductionPct())
	fmt.Fprintf(&sb, "Constraint met:            %v\n", r.Met)
	return sb.String()
}
