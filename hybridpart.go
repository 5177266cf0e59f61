package hybridpart

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hybridpart/internal/analysis"
	"hybridpart/internal/finegrain"
	"hybridpart/internal/interp"
	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
	"hybridpart/internal/platform"
)

// App is a compiled application: the lowered program plus the flattened
// (fully inlined) entry function the methodology operates on. An App is
// safe for concurrent Analyze/Partition/PartitionEnergy use — the sweep
// engine shares one App across its whole worker pool.
type App struct {
	entry   string
	srcHash string      // SHA-256 of the source text (see SourceHash)
	prog    *ir.Program // original program (used for execution)
	flat    *ir.Function
	fprog   *ir.Program // single-function program holding flat + globals

	// analysisMu serializes the analysis step: dominator and loop detection
	// recompute flat's CFG edge lists in place, the one mutation of shared
	// state on the partitioning path.
	analysisMu sync.Mutex

	// tables are flat's per-block DFGs, level order and live-in/out
	// footprints, built on first use and shared read-only by every packing,
	// replay and scoring call on this App. They derive from instructions and
	// terminators only, so the CFG-edge rewrite above cannot invalidate them.
	tablesOnce sync.Once
	tables     *ir.BlockTables
}

// blockTables returns the App's mapping-independent block tables.
func (a *App) blockTables() *ir.BlockTables {
	a.tablesOnce.Do(func() { a.tables = ir.BuildBlockTables(a.flat) })
	return a.tables
}

// analyze runs the analysis substrate under the App's mutex; everything
// else Partition does only reads the shared IR and may run concurrently.
func (a *App) analyze(freq []uint64, w analysis.Weights) *analysis.Report {
	a.analysisMu.Lock()
	defer a.analysisMu.Unlock()
	return analysis.Analyze(a.flat, freq, w)
}

// Compile parses, checks and lowers mini-C source text, then flattens the
// given entry function into the single CDFG the analysis and mapping steps
// consume (the paper's step 1).
func Compile(src, entry string) (*App, error) {
	prog, err := lower.LowerSource(src)
	if err != nil {
		return nil, err
	}
	flat, err := lower.Flatten(prog, entry)
	if err != nil {
		return nil, err
	}
	fprog := ir.NewProgram()
	fprog.Globals = prog.Globals
	if err := fprog.AddFunc(flat); err != nil {
		return nil, err
	}
	if err := fprog.Validate(); err != nil {
		return nil, fmt.Errorf("hybridpart: flattened program invalid: %w", err)
	}
	return &App{entry: entry, srcHash: SourceHash(src), prog: prog, flat: flat, fprog: fprog}, nil
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

// Runner executes the flattened application with profiling enabled — the
// dynamic-analysis half of the paper's step 3. Global arrays are the
// application's I/O surface.
type Runner struct {
	m    *interp.Machine
	prof *interp.Profile
	app  *App
}

// NewRunner returns a fresh Runner (globals at their initial values).
func (a *App) NewRunner() *Runner {
	m := interp.New(a.fprog)
	return &Runner{m: m, prof: m.EnableProfile(), app: a}
}

// SetGlobal copies vals into the named global array.
func (r *Runner) SetGlobal(name string, vals []int32) error {
	g := r.m.Global(name)
	if g == nil {
		return fmt.Errorf("hybridpart: global %q not found", name)
	}
	if len(vals) > len(g) {
		return fmt.Errorf("hybridpart: %d values exceed %q (len %d)", len(vals), name, len(g))
	}
	copy(g, vals)
	return nil
}

// Global returns the live storage of a global array (nil if absent).
func (r *Runner) Global(name string) []int32 { return r.m.Global(name) }

// Run executes the entry function with the given scalar arguments and
// returns its result. Profiling counts accumulate across calls.
func (r *Runner) Run(args ...int32) (int32, error) {
	iargs := make([]interp.Arg, len(args))
	for i, v := range args {
		iargs[i] = interp.Int(v)
	}
	return r.m.Run(r.app.entry, iargs...)
}

// BlockFrequencies returns the accumulated per-block execution counts
// (exec_freq), indexed by basic-block number.
func (r *Runner) BlockFrequencies() []uint64 {
	counts := r.prof.Counts[r.app.entry]
	out := make([]uint64, r.app.NumBlocks())
	copy(out, counts)
	return out
}

// RunProfile bundles the dynamic-analysis products of one or more Run
// calls: per-block execution counts plus taken control-flow transition
// counts (the reconfiguration model charges partition crossings on the
// latter).
type RunProfile struct {
	Freq  []uint64
	edges []finegrain.EdgeFreq
}

// Profile snapshots the runner's accumulated dynamic analysis.
func (r *Runner) Profile() *RunProfile {
	p := &RunProfile{Freq: r.BlockFrequencies()}
	for k, n := range r.prof.Edges[r.app.entry] {
		p.edges = append(p.edges, finegrain.EdgeFreq{From: k.From(), To: k.To(), N: n})
	}
	sort.Slice(p.edges, func(i, j int) bool {
		if p.edges[i].From != p.edges[j].From {
			return p.edges[i].From < p.edges[j].From
		}
		return p.edges[i].To < p.edges[j].To
	})
	return p
}

// InstructionsExecuted returns the dynamic instruction count so far.
func (r *Runner) InstructionsExecuted() uint64 { return r.prof.Instrs }

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
	// mean 1, the analytical model's operating point). They live here — not
	// only in per-call SimOptions — so they participate in Fingerprint() and
	// two cached results that differ only in a sim knob can never collide.
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
	p := platform.Default()
	w := analysis.DefaultWeights()
	return Options{
		AFPGA:             p.Fine.Area,
		ReconfigCycles:    p.Fine.ReconfigCycles,
		NumCGCs:           p.Coarse.NumCGCs,
		CGCRows:           p.Coarse.Rows,
		CGCCols:           p.Coarse.Cols,
		MemPorts:          p.Coarse.MemPorts,
		ClockRatio:        p.Coarse.ClockRatio,
		RegBankWords:      p.Coarse.RegBankWords,
		CommCyclesPerWord: p.Comm.CyclesPerWord,
		CommSyncCycles:    p.Comm.SyncCycles,
		Constraint:        60000,
		Order:             OrderByTotalWeight,
		WeightALU:         w.ALU,
		WeightMul:         w.Mul,
		WeightDiv:         w.Div,
		WeightMem:         w.Mem,
		Costs:             platform.DefaultOpCosts(),
	}
}

// platform materializes the characterization with the legacy defaulting
// rule: a zero-value Costs table (OpCosts.IsZero) selects the default
// characterization, so Options built literally keep their v1 meaning. The
// v2 Engine's WithCosts bypasses this rule and uses its table verbatim.
func (o Options) platform() platform.Platform {
	costs := o.Costs
	if costs.IsZero() {
		costs = platform.DefaultOpCosts()
	}
	return o.platformUsing(costs)
}

// platformUsing materializes the characterization with an explicit operator
// cost table, applying no defaulting at all.
func (o Options) platformUsing(costs OpCosts) platform.Platform {
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

// Analyze runs the static+dynamic analysis (step 3) against the given
// block frequencies.
func (a *App) Analyze(freq []uint64, opts Options) *Analysis {
	rep := a.analyze(freq, opts.weights())
	out := &Analysis{rep: rep}
	for _, id := range rep.Kernels {
		b := rep.Block(id)
		out.Kernels = append(out.Kernels, KernelInfo{
			Block:       int(b.ID),
			Name:        b.Name,
			Freq:        b.Freq,
			OpWeight:    b.OpWeight,
			TotalWeight: b.TotalWeight,
			LoopDepth:   b.Depth,
		})
	}
	return out
}

// FormatTable renders the top-n kernels like the paper's Table 1.
func (an *Analysis) FormatTable(n int) string { return an.rep.FormatTable(n) }

// Result is the outcome of a partitioning run (Tables 2–3 of the paper).
type Result struct {
	InitialCycles int64
	// InitialPartitions is the number of configuration bit-streams of the
	// all-FPGA mapping.
	InitialPartitions int
	FinalCycles       int64
	CyclesInCGC       int64
	TFPGA             int64
	TCoarse           int64
	TComm             int64
	Constraint        int64
	Met               bool
	Moved             []int
	Unmappable        []int
	Skipped           []int

	// Objective echoes the move-loop objective the run optimized.
	Objective Objective
	// SimulatedCycles, SimulatedBaselineCycles and SimulatedSpeedup report
	// the chosen mapping, the all-FPGA mapping and their ratio under the
	// run's co-simulation knobs (SimFrames/SimPorts/SimPrefetch). They are
	// filled whenever any sim knob, the simulated objective or re-ranking is
	// active, and stay zero on purely closed-form runs. Met always refers to
	// the analytical t_total against the constraint, never to these.
	SimulatedCycles         int64
	SimulatedBaselineCycles int64
	SimulatedSpeedup        float64
	// SimStats breaks down how the run's candidate simulations were paid for.
	SimStats SimScoreStats
}

// ReductionPct is the % cycle reduction over the all-FPGA mapping.
func (r *Result) ReductionPct() float64 {
	if r.InitialCycles == 0 {
		return 0
	}
	return 100 * float64(r.InitialCycles-r.FinalCycles) / float64(r.InitialCycles)
}

// Format renders the result in the layout of the paper's Tables 2–3. The
// table is built on demand — sweeps produce thousands of Results whose
// formatting would otherwise be wasted — and must stay byte-identical to
// the internal engine's FormatTable.
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
	fmt.Fprintf(&sb, "%% cycles reduction:        %.1f\n", r.ReductionPct())
	fmt.Fprintf(&sb, "Constraint met:            %v\n", r.Met)
	return sb.String()
}

// Partition runs the full methodology (steps 2–5) for the given profile and
// options.
//
// This is the v1 compatibility shim: it delegates to a single-use Engine
// configured via WithOptions, with no cancellation and no observer. New
// code should build a Workload and call Engine.Partition, which adds
// context cancellation and move-by-move progress events.
func (a *App) Partition(p *RunProfile, opts Options) (*Result, error) {
	eng, err := NewEngine(WithOptions(opts))
	if err != nil {
		return nil, err
	}
	return eng.partitionApp(context.Background(), a, p)
}
