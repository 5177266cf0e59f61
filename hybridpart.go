package hybridpart

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hybridpart/internal/analysis"
	"hybridpart/internal/coarsegrain"
	"hybridpart/internal/finegrain"
	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
	"hybridpart/internal/platform"
	"hybridpart/internal/sim"
)

// App is a compiled application: the lowered program plus the flattened
// (fully inlined) entry function the methodology operates on, and the
// analysis products that depend on nothing but that function. Compile
// builds the function and its loop structure, and nothing edits either
// afterwards; the per-block tables below are built on first use behind
// their own synchronization. An App is therefore safe for concurrent use
// by Engine runs — the sweep engine and the service share one App across
// all their requests.
type App struct {
	entry   string
	srcHash string // SHA-256 of the source text (see SourceHash)
	flat    *ir.Function
	fprog   *ir.Program // single-function program holding flat + globals

	// structure is flat's loop forest and per-block operation counts:
	// every request's analysis step only weighs its profile against it.
	structure *analysis.Structure

	// tables are flat's per-block DFGs, level order and live-in/out
	// footprints, built on first use and shared read-only by every packing,
	// replay and scoring call on this App.
	tablesOnce sync.Once
	tables     *ir.BlockTables

	// latencies is flat's data-path latency table for the last coarse
	// platform a run asked for. It holds one entry, never a map: the
	// service shares one App per benchmark for the whole process while
	// clients choose the platform, so a keyed memo would grow without
	// bound. Runs alternating platforms rebuild it, each run keeping the
	// table it loaded.
	latencies atomic.Pointer[coarsegrain.LatencyTable]
}

// blockTables returns the App's mapping-independent block tables.
func (a *App) blockTables() *ir.BlockTables {
	a.tablesOnce.Do(func() { a.tables = ir.BuildBlockTables(a.flat) })
	return a.tables
}

// coarseLatencies returns flat's data-path latency table on cg, scheduling
// every block the first time cg is seen (or seen again after another
// platform replaced it). The build checks ctx between blocks; a cancelled
// build returns ctx's error and leaves the App's entry as it was.
func (a *App) coarseLatencies(ctx context.Context, cg platform.CoarseGrain) (*coarsegrain.LatencyTable, error) {
	if t := a.latencies.Load(); t != nil && t.Coarse == cg {
		return t, nil
	}
	t, err := coarsegrain.BuildLatencyTableContext(ctx, a.fprog, a.blockTables(), cg)
	if err != nil {
		return nil, err
	}
	a.latencies.Store(t)
	return t, nil
}

// analyze runs the analysis step (Table 1) on one profile.
func (a *App) analyze(freq []uint64, w analysis.Weights) *analysis.Report {
	return a.structure.Analyze(freq, w)
}

// newReplayer builds the co-simulator's replayer for profile p on plat from
// the App's block and latency tables and p's canonical trace.
func (a *App) newReplayer(ctx context.Context, p *RunProfile, plat platform.Platform) (*sim.Replayer, error) {
	lat, err := a.coarseLatencies(ctx, plat.Coarse)
	if err != nil {
		return nil, err
	}
	tr, err := p.canonicalTrace(a)
	if err != nil {
		return nil, err
	}
	return sim.NewReplayer(sim.Input{
		Prog:      a.fprog,
		F:         a.flat,
		Tables:    a.blockTables(),
		Latencies: lat,
		Plat:      plat,
		Freq:      p.Freq,
		Edges:     p.edges,
		Trace:     tr,
	})
}

// MaxBlockInstrs bounds the instructions of one basic block of the
// flattened (fully inlined) entry function; Compile enforces it once
// inlining has fixed the block sizes. The coarse-grain list scheduler is
// roughly quadratic in a block's size and runs on every block of a freshly
// compiled application, so one huge straight-line block would make an
// unbounded request. At the cap it schedules in a few milliseconds; the
// built-in benchmarks' largest blocks hold about 50 instructions.
const MaxBlockInstrs = 512

// ErrBlockTooLarge reports a flattened basic block with more than
// MaxBlockInstrs instructions.
var ErrBlockTooLarge = errors.New("hybridpart: basic block too large")

// Compile parses, checks and lowers mini-C source text, then flattens the
// given entry function into the single CDFG the analysis and mapping steps
// consume (the paper's step 1). A flattened block over MaxBlockInstrs
// instructions fails with ErrBlockTooLarge.
func Compile(src, entry string) (*App, error) {
	return compile(src, SourceHash(src), entry)
}

// compile is Compile with the source's hash already computed.
func compile(src, hash, entry string) (*App, error) {
	prog, err := lower.LowerSource(src)
	if err != nil {
		return nil, err
	}
	flat, err := lower.Flatten(prog, entry)
	if err != nil {
		return nil, err
	}
	for _, b := range flat.Blocks {
		if len(b.Instrs) > MaxBlockInstrs {
			return nil, fmt.Errorf("%w: block %d (%s) of %s holds %d instructions after inlining, over the limit of %d",
				ErrBlockTooLarge, b.ID, b.Name, entry, len(b.Instrs), MaxBlockInstrs)
		}
	}
	fprog := ir.NewProgram()
	fprog.Globals = prog.Globals
	if err := fprog.AddFunc(flat); err != nil {
		return nil, err
	}
	if err := fprog.Validate(); err != nil {
		return nil, fmt.Errorf("hybridpart: flattened program invalid: %w", err)
	}
	// The loop analysis rewrites flat's edge lists, so it runs here, before
	// the App can be shared.
	return &App{entry: entry, srcHash: hash, flat: flat, fprog: fprog,
		structure: analysis.NewStructure(flat)}, nil
}

// Entry returns the entry function name.
func (a *App) Entry() string { return a.entry }

// SourceHash returns the canonical content hash of the source text this App
// was compiled from (equal to SourceHash applied to that text). It
// content-addresses the application in caches keyed on what was compiled
// rather than on object identity.
func (a *App) SourceHash() string { return a.srcHash }

// NumBlocks returns the number of basic blocks in the flattened CDFG.
func (a *App) NumBlocks() int { return len(a.flat.Blocks) }

// BlockName returns the diagnostic label of basic block id.
func (a *App) BlockName(id int) string {
	if id < 0 || id >= len(a.flat.Blocks) {
		return ""
	}
	return a.flat.Blocks[id].Name
}

// WriteCFGDot writes the flattened CDFG in Graphviz DOT form.
func (a *App) WriteCFGDot(w io.Writer) error { return ir.WriteCFGDot(w, a.flat) }

// WriteDFGDot writes the data-flow graph of basic block id in DOT form.
func (a *App) WriteDFGDot(w io.Writer, id int) error {
	if id < 0 || id >= len(a.flat.Blocks) {
		return fmt.Errorf("hybridpart: block %d out of range [0,%d)", id, len(a.flat.Blocks))
	}
	return ir.WriteDFGDot(w, ir.BuildDFG(a.flat, a.flat.Blocks[id]))
}

// RunProfile bundles the dynamic-analysis products of one or more Run
// calls: per-block execution counts plus taken control-flow transition
// counts (the reconfiguration model charges partition crossings on the
// latter).
//
// A RunProfile is a snapshot, immutable once handed to an Engine: callers
// must not mutate Freq afterwards. Engine runs on the snapshot's own App
// build its scoring context on first use and keep it here — the canonical
// trace the co-simulator replays, the analysis report for the engine's
// weights and the kernel order for each ordering strategy — so repeated
// runs on one profile pay only for the platform- and mapping-dependent
// work. The products are built race-free and shared read-only by every
// run, concurrent ones included; the report is kept for the last weights
// asked for.
type RunProfile struct {
	Freq  []uint64
	edges []finegrain.EdgeFreq

	// app is the App the snapshot profiles. The scoring context below
	// serves runs on it only; a RunProfile built literally has none, and
	// its runs build their own products.
	app *App

	traceOnce sync.Once
	trace     *sim.Trace
	traceErr  error

	// analysis is the report for the last analysis weights asked for. It
	// holds one entry, like App.latencies: the service shares one profile
	// per benchmark while clients choose the weights.
	analysis atomic.Pointer[profileAnalysis]
}

// canonicalTrace returns p's canonical trace for a run on a, built on
// first use; nil (NewReplayer then builds one) when p does not profile a.
func (p *RunProfile) canonicalTrace(a *App) (*sim.Trace, error) {
	if p.app != a {
		return nil, nil
	}
	p.traceOnce.Do(func() {
		tokens, runs, err := sim.BuildTrace(a.flat, p.Freq, p.edges)
		if err != nil {
			p.traceErr = err
			return
		}
		p.trace = &sim.Trace{Tokens: tokens, Runs: runs}
	})
	return p.trace, p.traceErr
}

// analysisFor returns the analysis step's output for p under weights w on
// a, reusing the stored entry when w matches it.
func (p *RunProfile) analysisFor(a *App, w analysis.Weights) *profileAnalysis {
	if p.app != a {
		return &profileAnalysis{w: w, rep: a.analyze(p.Freq, w)}
	}
	if pa := p.analysis.Load(); pa != nil && pa.w == w {
		return pa
	}
	pa := &profileAnalysis{w: w, rep: a.analyze(p.Freq, w)}
	p.analysis.Store(pa)
	return pa
}

// profileAnalysis is one profile's analysis report under one weight
// assignment, plus its kernel orders, each built on first use.
type profileAnalysis struct {
	w   analysis.Weights
	rep *analysis.Report
	// orders[i] is the kernel order under OrderByFreq (i = 0) and
	// OrderByOpWeight (i = 1); rep.Kernels already holds eq. 1's.
	orderOnce [2]sync.Once
	orders    [2][]ir.BlockID
}

// kernels returns the report's candidate kernels in the given order.
func (pa *profileAnalysis) kernels(order KernelOrder) []ir.BlockID {
	var i int
	switch order {
	case OrderByFreq:
		i = 0
	case OrderByOpWeight:
		i = 1
	default:
		// OrderKernels ranks every other strategy value by total weight.
		return pa.rep.Kernels
	}
	pa.orderOnce[i].Do(func() { pa.orders[i] = analysis.OrderKernels(pa.rep, order) })
	return pa.orders[i]
}

// KernelOrder re-exports the analysis ordering strategies.
type KernelOrder = analysis.KernelOrder

// Kernel ordering strategies (OrderByTotalWeight is the paper's eq. 1).
const (
	OrderByTotalWeight = analysis.OrderByTotalWeight
	OrderByFreq        = analysis.OrderByFreq
	OrderByOpWeight    = analysis.OrderByOpWeight
)

// Options collects every platform and engine knob with the paper's
// evaluation defaults.
type Options struct {
	// AFPGA is the usable fine-grain area (paper: 1500 or 5000 units).
	AFPGA int
	// ReconfigCycles is the full-reconfiguration cost per temporal
	// partition in FPGA cycles.
	ReconfigCycles int
	// Regions is the number of independently reconfigurable regions the
	// fine-grain fabric is split into (partial dynamic reconfiguration).
	// 0 or 1 is the paper's monolithic context; with R > 1 the area splits
	// evenly across regions, each swap costs ReconfigCycles/R (rounded up),
	// and temporal partitions resident in different regions coexist.
	Regions int

	// NumCGCs, CGCRows, CGCCols shape the coarse-grain data-path (paper:
	// two or three 2×2 CGCs).
	NumCGCs int
	CGCRows int
	CGCCols int
	// MemPorts is the shared-memory ports available per CGC cycle.
	MemPorts int
	// ClockRatio is T_FPGA/T_CGC (paper: 3).
	ClockRatio int
	// RegBankWords sizes the data-path register bank (arrays up to this
	// size are bank-resident during kernel execution; 0 disables the bank).
	RegBankWords int

	// CommCyclesPerWord and CommSyncCycles parameterize t_comm.
	CommCyclesPerWord int
	CommSyncCycles    int

	// Constraint is the timing constraint in FPGA cycles.
	Constraint int64
	// Order selects the kernel ordering strategy.
	Order KernelOrder
	// MaxMoves bounds the number of kernels moved (0 = unlimited); useful
	// for move-by-move trajectory studies.
	MaxMoves int
	// SkipNonImproving rejects moves whose communication overhead exceeds
	// their gain (ablation switch; the paper's engine moves unconditionally).
	SkipNonImproving bool

	// WeightALU/Mul/Div/Mem are the static analysis weights (paper: ALU 1,
	// MUL 2; memory accesses are counted as basic operations).
	WeightALU int64
	WeightMul int64
	WeightDiv int64
	WeightMem int64

	// Objective selects the move-loop objective: ObjectiveModel optimizes
	// the closed-form t_total (the paper's engine, the default);
	// ObjectiveSimulated scores every trajectory prefix by replaying the
	// profiled trace through the co-simulator under the Sim* knobs and keeps
	// the mapping with the minimal simulated makespan.
	Objective Objective
	// RerankK keeps the closed-form loop but re-scores the k trajectory
	// prefixes with the best model t_total by simulation (0 = off, -1 = all,
	// which is equivalent to ObjectiveSimulated). Mutually exclusive with
	// ObjectiveSimulated.
	RerankK int

	// SimFrames, SimPorts and SimPrefetch are the co-simulation knobs shared
	// by Simulate, the simulated objective and re-ranking (zero frames/ports
	// mean 1, the analytical model's operating point). They live here so
	// they participate in Fingerprint() and two cached results that differ
	// only in a sim knob can never collide.
	SimFrames   int
	SimPorts    int
	SimPrefetch bool

	// Costs is the fine-grain operator cost table (area and latency per
	// operation class). The zero value selects the default characterization,
	// so Options built literally keep their previous meaning; presets such
	// as "dsp-rich" install their own tables here.
	Costs OpCosts
}

// OpCosts characterizes the fine-grain fabric per operation class: area in
// A_FPGA units and latency in FPGA cycles for ALU, multiply, divide and
// memory operations.
type OpCosts = platform.OpCosts

// DefaultOpCosts returns the cost table used throughout the paper's
// experiments (multipliers 4× the ALU area, two cycles).
func DefaultOpCosts() OpCosts { return platform.DefaultOpCosts() }

// DefaultOptions returns the paper's baseline configuration: A_FPGA = 1500,
// two 2×2 CGCs, T_FPGA = 3·T_CGC, eq. 1 kernel ordering.
func DefaultOptions() Options {
	w := analysis.DefaultWeights()
	o := Options{
		Constraint: 60000,
		Order:      OrderByTotalWeight,
		WeightALU:  w.ALU,
		WeightMul:  w.Mul,
		WeightDiv:  w.Div,
		WeightMem:  w.Mem,
	}
	applyPlatform(&o, platform.Default())
	return o
}

// platform materializes the characterization. A zero-value Costs table
// (OpCosts.IsZero) selects the default characterization, so an Options value
// built literally — such as one decoded from the wire — keeps the paper's
// fabric.
func (o Options) platform() platform.Platform {
	costs := o.Costs
	if costs.IsZero() {
		costs = platform.DefaultOpCosts()
	}
	return platform.Platform{
		Fine: platform.FineGrain{
			Area:           o.AFPGA,
			ReconfigCycles: o.ReconfigCycles,
			Regions:        o.Regions,
			Costs:          costs,
		},
		Coarse: platform.CoarseGrain{
			NumCGCs:      o.NumCGCs,
			Rows:         o.CGCRows,
			Cols:         o.CGCCols,
			MemPorts:     o.MemPorts,
			ClockRatio:   o.ClockRatio,
			RegBankWords: o.RegBankWords,
		},
		Comm: platform.Comm{CyclesPerWord: o.CommCyclesPerWord, SyncCycles: o.CommSyncCycles},
	}
}

// Validate reports the first knob of o that no run can use. The platform
// fields must describe a physical platform: positive area, CGC count and
// shape, memory ports, clock ratio and operator costs, non-negative
// reconfiguration, register-bank, region and communication figures, and
// every operator fitting in A_FPGA and in each region. Order and Objective
// must name a known strategy and objective; MaxMoves, the analysis
// weights, SimFrames, SimPorts and Constraint must be non-negative;
// RerankK must be -1, 0 or positive and is exclusive with
// ObjectiveSimulated. A zero Constraint is valid because energy runs never
// read it; a timing-constrained run still needs it positive. NewEngine
// validates every engine's final knob set.
func (o Options) Validate() error {
	if err := o.platform().Validate(); err != nil {
		return err
	}
	switch {
	case o.Order > OrderByOpWeight:
		return fmt.Errorf("hybridpart: unknown kernel order %d", o.Order)
	case o.Objective != ObjectiveModel && o.Objective != ObjectiveSimulated:
		return fmt.Errorf("hybridpart: invalid objective %d", int(o.Objective))
	case o.MaxMoves < 0:
		return fmt.Errorf("hybridpart: max moves must be non-negative, got %d", o.MaxMoves)
	case o.WeightALU < 0 || o.WeightMul < 0 || o.WeightDiv < 0 || o.WeightMem < 0:
		return fmt.Errorf("hybridpart: analysis weights must be non-negative, got %d/%d/%d/%d",
			o.WeightALU, o.WeightMul, o.WeightDiv, o.WeightMem)
	case o.RerankK < -1:
		return fmt.Errorf("hybridpart: rerank k must be -1 (all), 0 (off) or positive, got %d", o.RerankK)
	case o.RerankK != 0 && o.Objective == ObjectiveSimulated:
		return errors.New("hybridpart: rerank and the simulated objective are mutually exclusive (rerank already ends with a simulated selection)")
	case o.SimFrames < 0 || o.SimPorts < 0:
		return fmt.Errorf("hybridpart: sim frames and ports must be non-negative, got %d/%d", o.SimFrames, o.SimPorts)
	case o.Constraint < 0:
		return fmt.Errorf("hybridpart: timing constraint must be non-negative, got %d", o.Constraint)
	}
	return nil
}

func (o Options) weights() analysis.Weights {
	return analysis.Weights{ALU: o.WeightALU, Mul: o.WeightMul, Div: o.WeightDiv, Mem: o.WeightMem}
}

// KernelInfo is one row of the analysis report (Table 1 of the paper).
type KernelInfo struct {
	Block       int
	Name        string
	Freq        uint64
	OpWeight    int64
	TotalWeight int64
	LoopDepth   int
}

// Analysis is the facade view of the analysis step's output.
type Analysis struct {
	rep *analysis.Report
	// Kernels lists candidate kernels in decreasing total weight.
	Kernels []KernelInfo
}

// FormatTable renders the top-n kernels like the paper's Table 1.
func (an *Analysis) FormatTable(n int) string { return an.rep.FormatTable(n) }

// Result is the outcome of a partitioning run (Tables 2–3 of the paper).
// Its JSON encoding is the body of POST /v1/partition and hpart -json.
type Result struct {
	InitialCycles int64 `json:"initial_cycles"`
	// InitialPartitions is the number of configuration bit-streams of the
	// all-FPGA mapping.
	InitialPartitions int   `json:"initial_partitions"`
	FinalCycles       int64 `json:"final_cycles"`
	CyclesInCGC       int64 `json:"cycles_in_cgc"`
	TFPGA             int64 `json:"t_fpga"`
	TCoarse           int64 `json:"t_coarse"`
	TComm             int64 `json:"t_comm"`
	Constraint        int64 `json:"constraint"`
	Met               bool  `json:"met"`
	// ReductionPct is the % cycle reduction over the all-FPGA mapping, 0
	// when InitialCycles is 0.
	ReductionPct float64 `json:"reduction_pct"`
	// Objective is the name of the move-loop objective the run optimized.
	Objective  string `json:"objective"`
	Moved      []int  `json:"moved,omitempty"`
	Unmappable []int  `json:"unmappable,omitempty"`
	Skipped    []int  `json:"skipped,omitempty"`

	// SimulatedCycles, SimulatedBaselineCycles and SimulatedSpeedup report
	// the chosen mapping, the all-FPGA mapping and their ratio under the
	// run's co-simulation knobs (SimFrames/SimPorts/SimPrefetch). They are
	// filled whenever any sim knob, the simulated objective or re-ranking is
	// active, and stay zero (omitted) on purely closed-form runs. Met always
	// refers to the analytical t_total against the constraint, never to
	// these.
	SimulatedCycles         int64   `json:"simulated_cycles,omitempty"`
	SimulatedBaselineCycles int64   `json:"simulated_baseline_cycles,omitempty"`
	SimulatedSpeedup        float64 `json:"simulated_speedup,omitempty"`
	// SimStats breaks down how the run's candidate simulations were paid for.
	SimStats SimScoreStats `json:"-"`
}

// Format renders the result in the layout of the paper's Tables 2–3. The
// table is built on demand — sweeps produce thousands of Results whose
// formatting would otherwise be wasted.
func (r *Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Initial cycles (all-FPGA): %d\n", r.InitialCycles)
	fmt.Fprintf(&sb, "Timing constraint:         %d\n", r.Constraint)
	fmt.Fprintf(&sb, "Cycles in CGC:             %d\n", r.CyclesInCGC)
	ids := make([]string, len(r.Moved))
	for i, b := range r.Moved {
		ids[i] = strconv.Itoa(b)
	}
	fmt.Fprintf(&sb, "BB no. moved:              %s\n", strings.Join(ids, ", "))
	fmt.Fprintf(&sb, "Final cycles:              %d\n", r.FinalCycles)
	fmt.Fprintf(&sb, "%% cycles reduction:        %.1f\n", r.ReductionPct)
	fmt.Fprintf(&sb, "Constraint met:            %v\n", r.Met)
	return sb.String()
}
