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
	// Kernels, when non-nil, is analysis.OrderKernels(rep, Order) built
	// once by the caller and shared read-only across runs on the same
	// report; nil orders the report's kernels for this run.
	Kernels []ir.BlockID
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
	// Stop, when non-nil, replaces the eq. 2 test against Constraint (which
	// it makes unused): the loop calls it on record 0, the all-FPGA
	// mapping, and then on the record of every accepted move, in
	// trajectory order on the engine's own goroutine, and stops with Met
	// set at the first record it accepts. The energy-constrained variant
	// prices each record here. Not allowed with simulation-scored
	// selection, which never stops early.
	Stop func(*Prefix) bool

	// Objective selects the move-loop objective. Under ObjectiveSimulated
	// the loop walks the full trajectory (ignoring the constraint-met early
	// exit), scores every prefix with SimCostBatch and keeps the mapping
	// with the minimal simulated makespan.
	Objective Objective
	// RerankK keeps the closed-form loop but re-scores the k trajectory
	// prefixes with the best model t_total by simulation, returning the one
	// with the minimal simulated makespan (0 = off, -1 = all prefixes, which
	// is equivalent to ObjectiveSimulated). Mutually exclusive with
	// ObjectiveSimulated.
	RerankK int
	// SimCostBatch scores a whole slate of candidate trajectory prefixes by
	// their simulated makespans in FPGA cycles: candidates are indices into
	// prefixes, the run's whole trajectory (see Prefix), whose records
	// carry each candidate's moved kernels and packing. Required when
	// Objective is ObjectiveSimulated or RerankK is non-zero; the engine
	// facade injects the co-simulator here, which keeps the move loop
	// independent of internal/sim. The scorer may prune any candidate it
	// can prove is not the argmin (bounded below above some fully scored
	// candidate); a pruned entry carries no cycle count and is skipped by
	// the selection. The returned slice must have one entry per candidate,
	// index-aligned. The scorer only reads the records.
	SimCostBatch func(ctx context.Context, prefixes []Prefix, candidates []int) ([]SimScore, error)

	// Prefixes is scratch storage for the run's trajectory records:
	// Partition overwrites it, packings included, and returns the records
	// in Result.Prefixes, which share its storage. Reusing the previous
	// run's Result.Prefixes here lets a warm run allocate no packing. nil
	// allocates the records.
	Prefixes []Prefix
}

// Prefix is one record of the move trajectory: the mapping after the first
// i accepted moves, record 0 being the all-FPGA mapping. Every mapping a
// run evaluates is one of these prefixes, so each is packed exactly once —
// from its predecessor's packing (finegrain.PackedMapping.PackFrom) — and
// the move loop's eq. 2 evaluation, the simulated scorer's bounds and its
// replays all read the same record.
type Prefix struct {
	// Block is the kernel whose move produced this record; -1 on record 0.
	// The moved set of record i is the Block of records 1..i.
	Block ir.BlockID
	// TFPGA, TCoarse and TComm are the mapping's eq. 2 components and Total
	// their sum, t_total, all in FPGA cycles.
	TFPGA, TCoarse, TComm, Total int64
	// Crossings is the packing's reconfiguration count
	// (finegrain.PackedMapping.Crossings), counted once for TFPGA and kept
	// for a Stop hook that prices it again.
	Crossings int64
	// Pack is the Figure 3 packing of the blocks left on the FPGA.
	Pack finegrain.PackedMapping
}

// AppendMoved appends the moved set of record i of the trajectory ps to dst
// and returns it.
func AppendMoved(dst []ir.BlockID, ps []Prefix, i int) []ir.BlockID {
	for _, p := range ps[1 : i+1] {
		dst = append(dst, p.Block)
	}
	return dst
}

// nextPrefix extends ps by one record, reusing the storage (packing
// included) past len(ps) when there is capacity. Otherwise it grows the
// capacity to at least want records (doubling past that) and carves the
// packings of all the new records, for a function of n blocks, out of one
// array per element type, so a cold run pays four allocations per growth
// instead of six per record. The caller overwrites every field of the new
// record.
func nextPrefix(ps []Prefix, n, want int) []Prefix {
	if len(ps) < cap(ps) {
		return ps[:len(ps)+1]
	}
	grown := make([]Prefix, len(ps)+1, max(2*cap(ps), want, 1))
	copy(grown, ps)
	fresh := grown[len(ps):cap(grown)]
	bools := make([]bool, len(fresh)*n)
	cycles := make([]int64, len(fresh)*n)
	ints := make([]int, 4*len(fresh)*n)
	for j := range fresh {
		pm := &fresh[j].Pack
		lo, hi := j*n, (j+1)*n
		pm.Included = bools[lo:hi:hi]
		pm.PerBlockCycles = cycles[lo:hi:hi]
		four := ints[4*lo : 4*hi : 4*hi]
		pm.FirstPart, pm.LastPart = four[:n:n], four[n:2*n:2*n]
		pm.InternalCrossings, pm.AreaAfter = four[2*n:3*n:3*n], four[3*n:]
	}
	return grown
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
	// SimScored counts the candidate mappings SimCostBatch scored (pruned
	// ones excluded).
	SimScored int

	// Prefixes holds one record per trajectory prefix the run walked:
	// Prefixes[i] is the mapping after the first i accepted moves. Moved is
	// cut to the chosen prefix under simulated selection while Prefixes
	// keeps the whole trajectory, so Prefixes[len(Moved)] is always the
	// chosen mapping and Prefixes[0] the all-FPGA one. The records share
	// Config.Prefixes' storage.
	Prefixes []Prefix
	// Packs counts the Figure 3 packings the run performed: one per record.
	Packs int
}

// stop reports whether the loop stops at record p: cfg.Stop's verdict when
// set, eq. 2's t_total against the constraint otherwise.
func (cfg *Config) stop(p *Prefix) bool {
	if cfg.Stop != nil {
		return cfg.Stop(p)
	}
	return p.Total <= cfg.Constraint
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
	if cfg.Constraint <= 0 && cfg.Stop == nil {
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
	if simSelect && cfg.SimCostBatch == nil {
		return nil, fmt.Errorf("partition: objective %v (rerank %d) needs a SimCostBatch evaluator", cfg.Objective, cfg.RerankK)
	}
	if simSelect && cfg.Stop != nil {
		return nil, fmt.Errorf("partition: a stop test and simulation-scored selection are mutually exclusive")
	}

	tables := cfg.Tables
	if tables == nil {
		tables = ir.BuildBlockTables(f)
	} else if tables.F != f {
		return nil, fmt.Errorf("partition: block tables describe function %q, not %q", tables.F.Name, f.Name)
	}
	latencies := cfg.Latencies
	if latencies == nil {
		var err error
		if latencies, err = coarsegrain.BuildLatencyTableContext(ctx, prog, tables, cfg.Platform.Coarse); err != nil {
			return nil, err
		}
	} else if !latencies.Describes(f, cfg.Platform.Coarse) {
		return nil, fmt.Errorf("partition: latency table does not describe function %q on the platform's data-path", f.Name)
	}

	plat := cfg.Platform
	freq := make([]uint64, len(f.Blocks))
	for i := range rep.Blocks {
		freq[i] = rep.Blocks[i].Freq
	}

	// Step 2: map everything to the fine-grain hardware: record 0 of the
	// trajectory. Every accepted move appends the next record, packed from
	// its predecessor.
	res := &Result{Func: f.Name, Constraint: cfg.Constraint, Objective: cfg.Objective}
	// Simulation-scored selection walks every kernel, so its records are
	// sized for the whole trajectory at once; the paper's loop usually
	// stops after a few moves and grows them as it goes.
	records := 8
	if simSelect {
		records = len(rep.Kernels) + 1
		if cfg.Kernels != nil {
			records = len(cfg.Kernels) + 1
		}
	}
	if cfg.MaxMoves > 0 {
		records = min(records, cfg.MaxMoves+1)
	}
	res.Prefixes = nextPrefix(cfg.Prefixes[:0], len(f.Blocks), records)
	rec := &res.Prefixes[0]
	if err := rec.Pack.Pack(tables, plat.Fine, nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	res.Packs++
	// One span brackets the whole engine run — the move loop plus, under
	// simulation-scored selection, the argmin pass. Like every span below it
	// ends on error returns too, so a failed run still shows in its trace.
	ctx, loopSpan := obs.Start(ctx, "partition.moveloop")
	defer loopSpan.End()
	if loopSpan != nil {
		loopSpan.Set(obs.Int("kernels_total", len(f.Blocks)))
		// Deferred after End, so it runs first.
		defer func() {
			loopSpan.Set(obs.Int("moves", len(res.Moved)), obs.Bool("met", res.Met), obs.Int("sim_scored", res.SimScored))
		}()
	}
	rec.Crossings = rec.Pack.Crossings(freq, cfg.Edges)
	res.InitialCycles = rec.Pack.CrossedCycles(freq, rec.Crossings, plat.Fine.ReconfigCycles)
	res.InitialPartitions = rec.Pack.NumPartitions
	res.FinalCycles = res.InitialCycles
	res.TFPGA = res.InitialCycles
	rec.Block = -1
	rec.TFPGA, rec.TCoarse, rec.TComm, rec.Total = res.InitialCycles, 0, 0, res.InitialCycles
	if !simSelect && cfg.stop(rec) {
		// Constraint met by the all-FPGA solution: the methodology exits
		// before the analysis/partitioning steps. Simulation-scored selection
		// keeps walking — moving kernels can still lower the simulated
		// makespan even when the closed form is already under the constraint.
		res.Met = true
		return res, nil
	}

	// Step 3 products: ordered kernels and live-in/out footprints.
	kernels := cfg.Kernels
	if kernels == nil {
		kernels = analysis.OrderKernels(rep, cfg.Order)
	}
	liveIO := tables.LiveIO

	moved := make([]bool, len(f.Blocks))
	include := func(id ir.BlockID) bool { return !moved[id] }
	var coarseCGCCycles int64 // Σ latency×freq in T_CGC cycles (eq. 3)
	var commCycles int64
	ratio := int64(plat.Coarse.ClockRatio)

	// Step 4: move kernels one by one until the constraint is met (under
	// simulation-scored selection: until the candidates run out, recording
	// every prefix for the argmin pass).
	// tryMove attempts to move kernel k under its own "move" span and
	// reports whether the constraint is now met.
	tryMove := func(k ir.BlockID) (met bool, err error) {
		// Attributes are built only on a live span: each one boxes its
		// value, which an untraced run would pay for on every move.
		_, span := obs.Start(ctx, "move")
		defer span.End()
		if span != nil {
			span.Set(obs.Int("block", int(k)))
		}
		lat, err := latencies.Latency(k)
		if err != nil {
			if errors.Is(err, coarsegrain.ErrUnmappable) {
				res.Unmappable = append(res.Unmappable, k)
				if span != nil {
					span.Set(obs.String("outcome", "unmappable"))
				}
				return false, nil
			}
			return false, err
		}
		io := liveIO[k]
		moveComm := int64(freq[k]) * (int64(io.In+io.Out)*int64(plat.Comm.CyclesPerWord) + int64(plat.Comm.SyncCycles))
		moveCGC := lat * int64(freq[k])

		if cfg.SkipNonImproving {
			// Does the move pay for itself? Compare the kernel's current
			// FPGA cost (the last record packs the current moved set)
			// against its coarse cost plus communication.
			fpgaCost := res.Prefixes[len(res.Prefixes)-1].Pack.PerBlockCycles[k] * int64(freq[k])
			coarseCost := (moveCGC+ratio-1)/ratio + moveComm
			if coarseCost >= fpgaCost {
				res.Skipped = append(res.Skipped, k)
				if span != nil {
					span.Set(obs.String("outcome", "skipped"))
				}
				return false, nil
			}
		}

		moved[k] = true
		coarseCGCCycles += moveCGC
		commCycles += moveComm
		res.Moved = append(res.Moved, k)

		// The new record packs like its predecessor up to block k, the one
		// this move took off the FPGA.
		res.Prefixes = nextPrefix(res.Prefixes, len(f.Blocks), records)
		n := len(res.Prefixes)
		rec := &res.Prefixes[n-1]
		if err := rec.Pack.PackFrom(&res.Prefixes[n-2].Pack, k, tables, plat.Fine, include); err != nil {
			return false, err
		}
		res.Packs++
		rec.Crossings = rec.Pack.Crossings(freq, cfg.Edges)
		tFPGA := rec.Pack.CrossedCycles(freq, rec.Crossings, plat.Fine.ReconfigCycles)
		tCoarse := (coarseCGCCycles + ratio - 1) / ratio
		tComm := commCycles
		total := tFPGA + tCoarse + tComm
		rec.Block, rec.TFPGA, rec.TCoarse, rec.TComm, rec.Total = k, tFPGA, tCoarse, tComm, total
		res.TFPGA, res.TCoarse, res.TComm = tFPGA, tCoarse, tComm
		res.FinalCycles = total
		res.CyclesInCGC = tCoarse
		mv := Move{Block: k, CGCCycles: lat, TotalAfter: total}
		res.Moves = append(res.Moves, mv)
		if cfg.OnMove != nil {
			cfg.OnMove(mv)
		}
		if span != nil {
			span.Set(obs.String("outcome", "moved"), obs.Int64("t_total", total))
		}
		return !simSelect && cfg.stop(rec), nil
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
	prefixes := res.Prefixes
	idxs := make([]int, len(prefixes))
	for i := range idxs {
		idxs[i] = i
	}
	if cfg.Objective != ObjectiveSimulated && cfg.RerankK > 0 && cfg.RerankK < len(prefixes) {
		sort.SliceStable(idxs, func(a, b int) bool { return prefixes[idxs[a]].Total < prefixes[idxs[b]].Total })
		idxs = idxs[:cfg.RerankK]
		sort.Ints(idxs)
	}
	argCtx, argSpan := obs.Start(ctx, "sim.argmin")
	ctx = argCtx
	defer argSpan.End()
	if argSpan != nil {
		argSpan.Set(obs.Int("prefixes", len(prefixes)))
	}
	// Hand the scorer the whole slate so it can order it by bound and
	// prune. Selection stays in candidate-index order with a strict <
	// comparison, so ties break on the lowest trajectory index — a pruned
	// candidate is by contract strictly worse than some scored one, so
	// skipping it never changes the argmin.
	scores, err := cfg.SimCostBatch(ctx, prefixes, idxs)
	if err != nil {
		return nil, err
	}
	if len(scores) != len(idxs) {
		return nil, fmt.Errorf("partition: SimCostBatch returned %d scores for %d candidates", len(scores), len(idxs))
	}
	bestIdx, bestSim := -1, int64(0)
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
	if argSpan != nil {
		argSpan.Set(obs.Int("scored", res.SimScored), obs.Int("best_prefix", bestIdx))
	}
	best := &prefixes[bestIdx]
	res.Moved = res.Moved[:bestIdx]
	res.Moves = res.Moves[:bestIdx]
	res.TFPGA, res.TCoarse, res.TComm = best.TFPGA, best.TCoarse, best.TComm
	res.FinalCycles = best.Total
	res.CyclesInCGC = best.TCoarse
	res.Met = best.Total <= cfg.Constraint
	res.SimulatedCycles = bestSim
	return res, nil
}
