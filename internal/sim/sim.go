package sim

import (
	"context"
	"fmt"
	"slices"

	"hybridpart/internal/coarsegrain"
	"hybridpart/internal/finegrain"
	"hybridpart/internal/ir"
	"hybridpart/internal/platform"
)

// Config holds the simulation knobs.
type Config struct {
	// Frames is the number of times the profiled trace is replayed (one
	// replay per application frame); 0 means 1. With more than one frame the
	// fabrics pipeline: frame i+1's fine-grain work proceeds while frame i's
	// kernels still occupy the data-path.
	Frames int
	// Ports is the width of the fabric-to-fabric transfer channel in
	// shared-memory ports; 0 means 1, the analytical model's serialization
	// assumption. A P-port transfer moves ceil(words/P) words per
	// CyclesPerWord slot; overlapping transfers from pipelined frames queue
	// on the channel instead of summing like the model's t_comm.
	Ports int
	// Prefetch overlaps the next temporal partition's bitstream load with
	// data-path execution: while a kernel runs on the CGCs, the sequencer
	// already loads the configuration of the next fine-grain block. Without
	// it the load starts only when the fine-grain block is dispatched.
	Prefetch bool
	// OnFrame, when non-nil, is called after each simulated frame of the
	// partitioned run with the 1-based frame number and the frame's
	// completion time in FPGA cycles. It runs on the simulator's goroutine.
	OnFrame func(frame int, cycles int64)
}

// Input is the simulated system: the flattened CDFG, its platform
// characterization, the dynamic-analysis profile, and the set of kernels
// the partitioning engine moved to the coarse-grain data-path (empty
// simulates the all-FPGA mapping).
type Input struct {
	Prog *ir.Program
	F    *ir.Function
	// Tables are F's mapping-independent block tables, shared read-only
	// with every other consumer of the same compiled application; nil
	// builds them for this Replayer.
	Tables *ir.BlockTables
	// Latencies are F's data-path latencies on Plat.Coarse, shared
	// read-only like Tables; nil builds them for this Replayer.
	Latencies *coarsegrain.LatencyTable
	Plat      platform.Platform
	Freq      []uint64
	Edges     []finegrain.EdgeFreq
	// Trace is the canonical trace BuildTrace builds from F, Freq and
	// Edges, shared read-only by every Replayer of the same profile; nil
	// builds it for this Replayer.
	Trace *Trace
}

// Trace is a profile's loop-compressed canonical trace and the number of
// profiled runs folded into it, as BuildTrace returns them. It depends on
// the function and the profile only, never on the platform or the mapping,
// and is immutable once built.
type Trace struct {
	Tokens []Token
	Runs   int
}

// KernelStat is one row of the per-kernel timeline: aggregate fabric
// occupancy of one basic block across every invocation, in FPGA cycles.
type KernelStat struct {
	Block       ir.BlockID
	Name        string
	Fabric      string // "fine" or "coarse"
	Invocations uint64
	// BusyCycles is the block's fabric occupancy: level cycles on the FPGA,
	// data-path latency on the CGCs (transfers are accounted to the memory
	// channel, reconfigurations to the fine fabric).
	BusyCycles int64
	FirstStart int64
	LastEnd    int64
}

// Report is the outcome of one simulation.
type Report struct {
	// TotalCycles is the simulated makespan in FPGA cycles.
	TotalCycles int64
	Frames      int
	Ports       int
	Prefetch    bool
	// Runs is the number of profiled runs folded into the replayed trace.
	Runs int

	// Fine-grain fabric occupancy, FPGA cycles: executing blocks, loading
	// configurations, and idle (makespan minus the other two).
	FineBusy     int64
	FineReconfig int64
	FineIdle     int64
	// Coarse-grain data-path occupancy.
	CoarseBusy int64
	CoarseIdle int64
	// MemBusy is the transfer channel's occupancy.
	MemBusy int64

	// Reconfigs counts performed configuration loads across every frame;
	// ModelCrossings is the count the analytical model charges for the same
	// mapping and frame count (eq. 4's crossing term, once per frame) —
	// they differ when a partition switch hides behind a data-path window
	// (never charged by the model) or survives a frame boundary (always
	// recharged by it).
	Reconfigs      int64
	ModelCrossings int64
	// HiddenReconfigCycles is the portion of the reconfiguration time that
	// prefetching overlapped with data-path execution.
	HiddenReconfigCycles int64

	Kernels []KernelStat
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Replayer is the reusable half of the simulator: the canonical trace, the
// per-block fine-grain floors and the per-kernel data-path latencies, all of
// which depend only on the application, its profile and the platform — not
// on the mapping. Building one Replayer and scoring each candidate mapping
// on it is what makes simulated makespan affordable as a move-loop
// objective: each candidate pays only its packing and its replay, never a
// trace reconstruction or a list-scheduling pass — and a candidate that
// arrives with its packing (MakespanPacked, FineWalkBoundPacked; the move
// loop packs every trajectory prefix once) pays only the replay.
//
// The trace is held loop-compressed, as the (body, reps) tokens BuildTrace
// emits, and every per-mapping walk — FineWalkBound and Makespan — costs
// O(tokens · body), not O(block visits): a sequencer state machine's state
// after one pass over a body depends only on the body, so the walks play
// each token once at weight 1 and once at weight reps−1, and the replay
// fast-forwards each token from its first steady-state repetition to its
// last. Only Simulate's per-kernel report plays every repetition.
//
// The DFGs, level order and live-in/out footprints come from the per-App
// ir.BlockTables in Input.Tables, and the data-path latencies from the
// per-App coarsegrain.LatencyTable in Input.Latencies; both are shared with
// the partitioning engine and every other Replayer of the same application.
// The trace comes from Input.Trace when the caller keeps one per profile
// (the facade does) and the floors are this Replayer's own (one per
// platform). A candidate's packing is either the caller's own, passed to
// the Packed entry points, or packed once into the caller's Arena by the
// entry points that take a moved-block list.
//
// Concurrency contract: a Replayer is safe for concurrent use without
// locks. Every table it holds or shares is immutable after NewReplayer
// returns, so any number of goroutines may call Simulate, Makespan,
// LowerBound, FineWalkBound, CoarseLatency and TransferTicks on one shared
// Replayer. The only per-goroutine state is the Arena (and the caller's own
// mapping and packing, which the Replayer only reads): an Arena must not be
// shared between concurrent calls — give each worker its own.
type Replayer struct {
	in        Input
	tables    *ir.BlockTables
	latencies *coarsegrain.LatencyTable
	trace     []Token
	// traceLen is the expanded trace length (block visits per frame) and
	// bodyLen the number of block IDs the tokens store.
	traceLen, bodyLen int
	runs              int

	// minFineT[b] is a packing-independent lower bound on block b's
	// per-execution fine-grain cost in ticks: its cost when packed into one
	// unbounded region, i.e. the sum over DFG levels of the level's max node
	// latency (min 1; 1 for a block without DFG nodes). Any packing only
	// splits levels across partition boundaries, and a split level
	// contributes at least its unsplit max, so PerBlockCycles >=
	// minFineT/ratio for every mapping.
	minFineT []int64
	// fineBase is the all-FPGA per-frame floor: Σ_b Freq[b]·minFineT[b].
	fineBase int64
	// blockArea[b] is block b's fine-grain area demand (Σ of its ops' area).
	// Packing never shares operators between blocks, so any packing of a
	// block set spends at least the sum of their areas; partition-boundary
	// waste only adds partitions on top.
	blockArea []int64
	// areaBase is Σ_b Freq[b]>0 · blockArea[b], the all-FPGA area demand of
	// the trace-active blocks.
	areaBase int64
}

// NewReplayer validates the platform, reconstructs the canonical trace
// (unless in.Trace supplies it) and computes the mapping-independent
// tables. The mapping is chosen per Simulate call.
func NewReplayer(in Input) (*Replayer, error) {
	if err := in.Plat.Validate(); err != nil {
		return nil, err
	}
	tables := in.Tables
	if tables == nil {
		tables = ir.BuildBlockTables(in.F)
	} else if tables.F != in.F {
		return nil, fmt.Errorf("sim: block tables describe function %q, not %q", tables.F.Name, in.F.Name)
	}
	latencies := in.Latencies
	if latencies == nil {
		latencies = coarsegrain.BuildLatencyTable(in.Prog, tables, in.Plat.Coarse)
	} else if !latencies.Describes(in.F, in.Plat.Coarse) {
		return nil, fmt.Errorf("sim: latency table does not describe function %q on the platform's data-path", in.F.Name)
	}
	tr := in.Trace
	if tr == nil {
		tokens, runs, err := BuildTrace(in.F, in.Freq, in.Edges)
		if err != nil {
			return nil, err
		}
		tr = &Trace{Tokens: tokens, Runs: runs}
	}
	trace, runs := tr.Tokens, tr.Runs
	n := len(in.F.Blocks)
	r := &Replayer{
		in:        in,
		tables:    tables,
		latencies: latencies,
		trace:     trace,
		runs:      runs,
		minFineT:  make([]int64, n),
		blockArea: make([]int64, n),
	}
	for _, t := range trace {
		r.bodyLen += len(t.Body)
		r.traceLen += len(t.Body) * int(t.Reps)
	}
	// The execution floor is the cost in a single region no operator can
	// overflow: no partition boundary ever splits a level, so each level
	// costs its slowest node. Levels lists the nodes level-major.
	costs := in.Plat.Fine.Costs
	ratio := int64(in.Plat.Coarse.ClockRatio)
	for _, b := range in.F.Blocks {
		var area, cycles int64
		level, levelMax := int32(0), 0
		for _, nd := range tables.Levels[b.ID] {
			area += int64(costs.Area(nd.Class))
			if nd.Level != level {
				cycles += int64(levelMax)
				level, levelMax = nd.Level, 0
			}
			levelMax = max(levelMax, costs.Latency(nd.Class))
		}
		r.minFineT[b.ID] = max(cycles+int64(levelMax), 1) * ratio
		r.blockArea[b.ID] = area
		if int(b.ID) < len(in.Freq) && in.Freq[b.ID] > 0 {
			r.fineBase += int64(in.Freq[b.ID]) * r.minFineT[b.ID]
			r.areaBase += area
		}
	}
	return r, nil
}

// Runs returns the number of profiled runs folded into the replayed trace.
func (r *Replayer) Runs() int { return r.runs }

// TraceLen returns the number of kernel invocations replayed per frame: the
// expanded length of the loop-compressed trace.
func (r *Replayer) TraceLen() int { return r.traceLen }

// CoarseLatency returns block id's data-path latency in T_CGC cycles: the
// latency table's entry, the same list schedule the partitioning engine
// charges.
func (r *Replayer) CoarseLatency(id ir.BlockID) (int64, error) {
	lat, err := r.latencies.Latency(id)
	if err != nil {
		return 0, fmt.Errorf("sim: moved kernel b%d has no data-path schedule: %w", id, err)
	}
	return lat, nil
}

// TransferTicks returns block id's per-invocation transfer-channel occupancy
// in ticks when its live-in/out words stripe over the given port count.
func (r *Replayer) TransferTicks(id ir.BlockID, ports int) int64 {
	ratio := int64(r.in.Plat.Coarse.ClockRatio)
	io := r.tables.LiveIO[id]
	words := int64(io.In + io.Out)
	perSlot := ceilDiv(words, int64(ports))
	return (perSlot*int64(r.in.Plat.Comm.CyclesPerWord) + int64(r.in.Plat.Comm.SyncCycles)) * ratio
}

// normalize folds cfg's documented-equivalent zero knobs onto their defaults
// and rejects negative values.
func (cfg *Config) normalize() error {
	if cfg.Frames < 0 || cfg.Ports < 0 {
		return fmt.Errorf("sim: frames and ports must be non-negative, got %d/%d", cfg.Frames, cfg.Ports)
	}
	if cfg.Frames == 0 {
		cfg.Frames = 1
	}
	if cfg.Ports == 0 {
		cfg.Ports = 1
	}
	return nil
}

// Arena is the reusable scratch of one replay: the moved mask, the per-block
// cost tables, the per-region sequencer state, the prefetch oracle, the
// fast-forward snapshots and, for the entry points that take a moved-block
// list, the candidate's packing. Makespan and FineWalkBound grow it on
// first use and reuse the buffers afterwards, so a worker scoring thousands
// of candidate mappings allocates only on its first call. An Arena belongs
// to exactly one goroutine at a time; the zero value is ready to use.
type Arena struct {
	moved []bool
	// pm is the packing the moved-block entry points pack their candidate
	// into; packs counts those packings.
	pm    finegrain.PackedMapping
	packs int
	latT  []int64 // kernel latency, in ticks (T_CGC cycles)
	txT   []int64 // transfer-channel occupancy per invocation, ticks
	execT []int64 // fine-grain level cycles per execution, ticks
	// Prefetch oracle: nextPart has one entry per stored body position (the
	// next fine partition later in the same body, or -1), tails two per
	// token (the need after the body's last fine block on a repetition
	// that wraps around, and on the token's last repetition).
	nextPart []int32
	tails    []int32

	// Per-region sequencer scratch, one entry per reconfigurable region:
	// the resident partition (replay and walks) and FineWalkBound's symbolic
	// first-need record.
	loadedR       []int
	firstNeed     []int
	firstLead     []bool
	firstStraddle []bool

	// Steady-state fast-forward scratch of a makespan-only replay: the
	// state snapshots one frame and one token repetition back, and the
	// resources each token's body uses.
	frameSnap, repSnap seqState
	tokUse             []uint8
}

// Packs returns how many candidate mappings the arena has packed itself:
// one per Simulate, Makespan or FineWalkBound call. The Packed entry points
// read the caller's packing and pack nothing.
func (a *Arena) Packs() int { return a.packs }

// grow sizes the per-block scratch for n blocks.
func (a *Arena) grow(n int) {
	if cap(a.moved) < n {
		a.moved = make([]bool, n)
		a.latT = make([]int64, n)
		a.txT = make([]int64, n)
		a.execT = make([]int64, n)
	}
	a.moved = a.moved[:n]
	a.latT = a.latT[:n]
	a.txT = a.txT[:n]
	a.execT = a.execT[:n]
}

// pack packs the mapping that moves movedBlocks (range-checked) into a.pm
// exactly as the partitioning engine packs a trajectory prefix: every other
// block stays on the FPGA.
func (a *Arena) pack(r *Replayer, movedBlocks []ir.BlockID) error {
	n := len(r.in.F.Blocks)
	a.grow(n)
	moved := a.moved
	for i := range moved {
		moved[i] = false
	}
	for _, b := range movedBlocks {
		if int(b) < 0 || int(b) >= n {
			return fmt.Errorf("sim: moved block %d outside the function", b)
		}
		moved[b] = true
	}
	a.packs++
	return a.pm.Pack(r.tables, r.in.Plat.Fine, func(id ir.BlockID) bool { return !moved[id] })
}

// load sets the arena up for one candidate mapping of r's function, given
// its packing pm: the moved mask (every block pm leaves off the FPGA) and
// the per-block tables in ticks: data-path latency (from the same list
// schedule the engine used) and transfer occupancy for moved blocks, level
// cycles per execution for kept ones. Both branches write all three
// tables, since the arena may hold a previous mapping's values. The
// prefetch oracle is grown separately, only when a replay needs it. load
// packs nothing.
func (a *Arena) load(r *Replayer, ports int, pm *finegrain.PackedMapping) error {
	n := len(r.in.F.Blocks)
	if len(pm.Included) != n || pm.Regions != r.in.Plat.Fine.NumRegions() {
		return fmt.Errorf("sim: packing of %d blocks in %d regions does not describe %q (%d blocks) on the platform's %d regions",
			len(pm.Included), pm.Regions, r.in.F.Name, n, r.in.Plat.Fine.NumRegions())
	}
	a.grow(n)
	moved := a.moved
	ratio := int64(r.in.Plat.Coarse.ClockRatio)
	for id := 0; id < n; id++ {
		b := ir.BlockID(id)
		moved[id] = !pm.Included[id]
		if moved[id] {
			lat, err := r.CoarseLatency(b)
			if err != nil {
				return err
			}
			a.latT[id] = lat
			a.txT[id] = r.TransferTicks(b, ports)
			a.execT[id] = 0
			continue
		}
		a.latT[id] = 0
		a.txT[id] = 0
		a.execT[id] = pm.PerBlockCycles[id] * ratio
	}
	return nil
}

// growRegions sizes the per-region sequencer scratch for R regions and
// resets it: nothing resident, no region's first need recorded yet.
func (a *Arena) growRegions(regions int) {
	if cap(a.loadedR) < regions {
		a.loadedR = make([]int, regions)
		a.firstNeed = make([]int, regions)
		a.firstLead = make([]bool, regions)
		a.firstStraddle = make([]bool, regions)
	}
	a.loadedR = a.loadedR[:regions]
	a.firstNeed = a.firstNeed[:regions]
	a.firstLead = a.firstLead[:regions]
	a.firstStraddle = a.firstStraddle[:regions]
	for i := 0; i < regions; i++ {
		a.loadedR[i] = -1
		a.firstNeed[i] = -1
		a.firstLead[i] = false
		a.firstStraddle[i] = false
	}
}

// seqState is the replay state an event reads besides prevEnd: each
// resource's free time, the pending prefetch and every region's resident
// partition. Times are in ticks.
type seqState struct {
	fineFree, coarseFree, memFree int64
	// prefetchPart is the partition a pending prefetch loads, -1 when none
	// is pending. The load is the fine fabric's last event, so it is ready
	// at fineFree.
	prefetchPart int
	loadedR      []int
}

// Resources a stretch of the trace uses: the fine fabric (with its
// prefetches) and the data-path (with its transfer channel).
const (
	useFine uint8 = 1 << iota
	useCoarse
)

// saveTo copies s into snap, reusing snap's residency buffer.
func (s *seqState) saveTo(snap *seqState) {
	loaded := snap.loadedR
	*snap = *s
	snap.loadedR = append(loaded[:0], s.loadedR...)
}

// advance reports whether s is snap translated by one delta d, which it
// returns: the same residency and pending prefetch, and the free time of
// every resource in use exactly d later. A resource a stretch of the trace
// does not use is never consulted there, so it is left out.
func (s *seqState) advance(snap *seqState, use uint8) (int64, bool) {
	d := s.coarseFree - snap.coarseFree
	if use&useFine != 0 {
		d = s.fineFree - snap.fineFree
	}
	if s.prefetchPart != snap.prefetchPart || !slices.Equal(s.loadedR, snap.loadedR) {
		return 0, false
	}
	if use&useCoarse != 0 && (s.coarseFree-snap.coarseFree != d || s.memFree-snap.memFree != d) {
		return 0, false
	}
	return d, true
}

// shift translates the free times of the resources in use by d.
func (s *seqState) shift(d int64, use uint8) {
	if use&useFine != 0 {
		s.fineFree += d
	}
	if use&useCoarse != 0 {
		s.coarseFree += d
		s.memFree += d
	}
}

// kernelTimes is one block's timeline in a report replay, in ticks: its
// invocations, busy time, earliest start (-1 before the first) and latest
// end.
type kernelTimes struct {
	invocations       uint64
	busy, first, last int64
}

// note records one invocation running from start to end, busy for busy.
func (k *kernelTimes) note(start, end, busy int64) {
	k.invocations++
	k.busy += busy
	if k.first < 0 || start < k.first {
		k.first = start
	}
	k.last = max64(k.last, end)
}

// passes yields every token's body twice for a state-machine scan: once
// at weight 1 for its first repetition, then once at weight reps−1 for all
// the later ones (skipped when the token plays once). This is exact for
// any sequencer state machine whose state after one pass over a body
// depends only on the body and whose counters add per block: passes 2..reps
// all start in the state pass 1 leaves and count the same.
func (r *Replayer) passes(yield func(body []ir.BlockID, w int64) bool) {
	for _, t := range r.trace {
		if !yield(t.Body, 1) {
			return
		}
		if t.Reps > 1 && !yield(t.Body, int64(t.Reps-1)) {
			return
		}
	}
}

// Simulate replays the trace against the mapping that moves the given blocks
// to the coarse-grain data-path (nil simulates the all-FPGA mapping).
func (r *Replayer) Simulate(ctx context.Context, cfg Config, movedBlocks []ir.BlockID) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rep := &Report{
		Frames:   cfg.Frames,
		Ports:    cfg.Ports,
		Prefetch: cfg.Prefetch,
		Runs:     r.runs,
	}
	a := new(Arena)
	if err := a.pack(r, movedBlocks); err != nil {
		return nil, err
	}
	if _, err := r.replay(ctx, cfg, &a.pm, a, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// Makespan packs the mapping that moves the given blocks into the arena and
// returns MakespanPacked of that packing. A nil arena allocates a fresh
// one.
func (r *Replayer) Makespan(ctx context.Context, cfg Config, movedBlocks []ir.BlockID, a *Arena) (int64, error) {
	if a == nil {
		a = new(Arena)
	}
	if err := a.pack(r, movedBlocks); err != nil {
		return 0, err
	}
	return r.MakespanPacked(ctx, cfg, &a.pm, a)
}

// MakespanPacked replays the trace against the mapping pm packs — every
// block pm leaves off the FPGA runs on the data-path — and returns only the
// makespan in FPGA cycles, the same value Simulate reports as TotalCycles,
// without building the per-kernel timeline or the occupancy report. pm must
// be a packing of r's function on the platform's fine fabric; it is only
// read. With a reused Arena the steady state allocates nothing, which is
// what candidate scoring wants: the move loop asks for thousands of
// makespans and exactly one report. A nil arena allocates a fresh one.
func (r *Replayer) MakespanPacked(ctx context.Context, cfg Config, pm *finegrain.PackedMapping, a *Arena) (int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.normalize(); err != nil {
		return 0, err
	}
	if a == nil {
		a = new(Arena)
	}
	ticks, err := r.replay(ctx, cfg, pm, a, nil)
	if err != nil {
		return 0, err
	}
	return ceilDiv(ticks, int64(r.in.Plat.Coarse.ClockRatio)), nil
}

// LowerBound returns a cheap admissible lower bound, in FPGA cycles, on the
// makespan Simulate/Makespan report for the mapping that moves the given
// blocks under cfg. Each of the three resources — fine fabric, data-path,
// transfer channel — serves its whole per-frame workload every frame and
// never resets between frames, so its total busy floor bounds the makespan
// from below; the bound is the largest of the three. The fine-grain floor
// combines two packing-independent minima: execution (minFineT — any packing
// only splits DFG levels, and a split level still pays its unsplit max) and
// configuration loads. The remaining trace-active blocks need at least
// k = ceil(area/regionArea) temporal partitions; the first frame loads each
// of them at least once, at most R of them survive any frame boundary (one
// per reconfigurable region), so every later frame reloads at least k−R,
// and every load occupies the fine timeline — the single configuration
// port — for a full region reconfiguration, with or without prefetch, which
// only overlaps the load with data-path windows, never shortens the
// fabric's own busy time. With one region this is the monolithic-context
// floor of frames·(k−1)+1 loads. Branch-and-bound candidate
// scoring uses the bound to skip replays that provably cannot beat an
// incumbent. movedBlocks must not repeat a block (move trajectories never
// do). Safe for concurrent use.
func (r *Replayer) LowerBound(cfg Config, movedBlocks []ir.BlockID) (int64, error) {
	if err := cfg.normalize(); err != nil {
		return 0, err
	}
	sums := r.boundSums()
	for _, b := range movedBlocks {
		if err := r.moveSums(&sums, b, cfg.Ports); err != nil {
			return 0, err
		}
	}
	return r.boundOf(sums, cfg), nil
}

// LowerBounds returns LowerBound of every prefix of one move trajectory in
// a single pass along it: out[i] is the bound of the mapping that moves
// moved[:i], for i = 0..len(moved). The per-resource sums a prefix's bound
// reads only grow or shrink by the newly moved block's terms, so each
// prefix costs O(1) instead of O(moved). out is reused when it has the
// capacity.
func (r *Replayer) LowerBounds(cfg Config, moved []ir.BlockID, out []int64) ([]int64, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	sums := r.boundSums()
	out = append(out[:0], r.boundOf(sums, cfg))
	for _, b := range moved {
		if err := r.moveSums(&sums, b, cfg.Ports); err != nil {
			return nil, err
		}
		out = append(out, r.boundOf(sums, cfg))
	}
	return out, nil
}

// lbSums are the per-frame sums LowerBound reads, in ticks: the fine-grain
// execution floor and area demand still on the FPGA, and the data-path and
// transfer-channel work of the moved blocks.
type lbSums struct{ fine, area, coarse, mem int64 }

// boundSums returns the all-FPGA sums.
func (r *Replayer) boundSums() lbSums { return lbSums{fine: r.fineBase, area: r.areaBase} }

// moveSums moves block b's terms from the fine-grain sums to the data-path
// and transfer sums. A block the trace never executes changes nothing.
func (r *Replayer) moveSums(s *lbSums, b ir.BlockID, ports int) error {
	if int(b) < 0 || int(b) >= len(r.in.F.Blocks) {
		return fmt.Errorf("sim: moved block %d outside the function", b)
	}
	var freq int64
	if int(b) < len(r.in.Freq) {
		freq = int64(r.in.Freq[b])
	}
	if freq == 0 {
		return nil
	}
	lat, err := r.CoarseLatency(b)
	if err != nil {
		return err
	}
	s.fine -= freq * r.minFineT[b]
	s.area -= r.blockArea[b]
	s.coarse += freq * lat
	s.mem += freq * r.TransferTicks(b, ports)
	return nil
}

// boundOf is LowerBound's floor, in FPGA cycles, for the sums of one
// mapping under the normalized cfg.
func (r *Replayer) boundOf(s lbSums, cfg Config) int64 {
	frames := int64(cfg.Frames)
	fineTotal := s.fine * frames
	if s.area > 0 {
		fg := r.in.Plat.Fine
		k := ceilDiv(s.area, int64(fg.RegionArea()))
		loads := k
		if extra := k - int64(fg.NumRegions()); extra > 0 {
			loads += (frames - 1) * extra
		}
		fineTotal += loads * int64(fg.RegionReconfigCycles()) * int64(r.in.Plat.Coarse.ClockRatio)
	}
	floor := fineTotal
	if c := s.coarse * frames; c > floor {
		floor = c
	}
	if m := s.mem * frames; m > floor {
		floor = m
	}
	if floor < 0 {
		floor = 0
	}
	return ceilDiv(floor, int64(r.in.Plat.Coarse.ClockRatio))
}

// frameWalk is one pass of FineWalkBound's loaded-partition state machine
// over the trace: the chain costs of one frame, split by resource and by
// position relative to the other fabric's first/last event.
type frameWalk struct {
	fineExec int64 // fine execution + straddling loads (never hideable)
	fineLoad int64 // entry configuration loads (hideable only under prefetch)
	coarse   int64 // Σ data-path latencies over moved windows
	mem      int64 // Σ transfer occupancies over moved windows
	// leadMoved: moved-window chain cost before the frame's first fine
	// event. leadFine: fine chain cost before the frame's first moved
	// window. firstMovedTx: the first moved window's transfer occupancy.
	leadMoved, leadFine, firstMovedTx int64
	sawFine, sawMoved                 bool
	// Each region's first need is start-dependent, so the shared walk
	// leaves those loads out of the totals and records them per region in
	// the arena (firstNeed/firstLead/firstStraddle) for per-variant
	// resolution; the arena's loadedR vector after the walk is the frame's
	// end state.
}

// FineWalkBound packs the mapping that moves the given blocks into the
// arena and returns FineWalkBoundPacked of that packing. A nil arena
// allocates a fresh one.
func (r *Replayer) FineWalkBound(cfg Config, movedBlocks []ir.BlockID, a *Arena) (int64, error) {
	if a == nil {
		a = new(Arena)
	}
	if err := a.pack(r, movedBlocks); err != nil {
		return 0, err
	}
	return r.FineWalkBoundPacked(cfg, &a.pm, a)
}

// FineWalkBoundPacked returns a tighter admissible lower bound, in FPGA
// cycles, than LowerBound, from the candidate's actual packing pm (the one
// the replay uses; it is only read): it walks the trace's
// loaded-partition state machine — per-execution cycles, straddling
// crossings, every configuration load and every moved window — for the
// first frame and the steady-state frame, without event bookkeeping, so it
// costs one weighted pass pair per trace token instead of O(frames·trace)
// heavyweight events. It combines
// four floors, each justified by the replay's in-order service discipline:
//
//   - frame 1 is fully serial and later frames never delay it, so its whole
//     chain (under prefetch, minus the loads, which can hide in data-path
//     windows) bounds the makespan;
//   - the fine fabric's timeline is sequential and the replay charges every
//     execution, crossing and load to it (prefetch only overlaps loads with
//     data-path windows, never shortens the fabric's own busy time), so its
//     first event's earliest start (the frame-1 moved-window chain ahead of
//     it), its total occupancy across frames, and the last frame's trailing
//     moved-window chain add up below the makespan;
//   - symmetrically for the data-path: frame 1's leading fine chain, the
//     data-path's total occupancy, and the last frame's trailing fine chain
//     (lead/trail loads are always on-demand — there is no data-path window
//     for prefetch to hide them in — so they count even under prefetch);
//   - the transfer channel's total occupancy.
//
// The bound is exact whenever one fabric dominates, which is what lets
// branch-and-bound scoring kill most full replays once an incumbent near
// the optimum is known. The arena is per-goroutine scratch, as in
// MakespanPacked; nil allocates a fresh one. Safe for concurrent use with
// per-goroutine arenas.
func (r *Replayer) FineWalkBoundPacked(cfg Config, pm *finegrain.PackedMapping, a *Arena) (int64, error) {
	if err := cfg.normalize(); err != nil {
		return 0, err
	}
	if a == nil {
		a = new(Arena)
	}
	if err := a.load(r, cfg.Ports, pm); err != nil {
		return 0, err
	}
	moved := a.moved
	latT, txT, execT := a.latT, a.txT, a.execT
	ratio := int64(r.in.Plat.Coarse.ClockRatio)
	reconT := int64(r.in.Plat.Fine.RegionReconfigCycles()) * ratio
	regions := pm.Regions
	// A frame's walk depends on the initially resident partitions only
	// through each region's first need: after a region is touched once, its
	// state evolves identically for any starting residency. So one walk
	// (with every region's first load left symbolic) serves both the first
	// frame and the steady-state frames 2..F — which all start and end in
	// the same residency vector, so a single variant covers them and the
	// last frame IS one.
	a.growRegions(regions)
	loadedR, firstNeed, firstLead, firstStraddle := a.loadedR, a.firstNeed, a.firstLead, a.firstStraddle
	var w frameWalk
	for body, wt := range r.passes {
		for _, b := range body {
			id := int(b)
			if moved[id] {
				w.coarse += wt * latT[id]
				w.mem += wt * txT[id]
				if !w.sawFine {
					w.leadMoved += wt * (txT[id] + latT[id])
				}
				if !w.sawMoved {
					w.firstMovedTx = txT[id]
					w.sawMoved = true
				}
				continue
			}
			exec := execT[id]
			var load int64
			p := pm.FirstPart[id]
			if reg := p % regions; firstNeed[reg] < 0 {
				firstNeed[reg] = p
				firstLead[reg] = !w.sawMoved
				loadedR[reg] = p
			} else if loadedR[reg] != p {
				load = reconT
				loadedR[reg] = p
			}
			// Straddling loads ride the execution window — there is no
			// data-path window for prefetch to hide them in.
			for q := p + 1; q <= pm.LastPart[id]; q++ {
				if reg := q % regions; firstNeed[reg] < 0 {
					firstNeed[reg] = q
					firstLead[reg] = !w.sawMoved
					firstStraddle[reg] = true
					loadedR[reg] = q
				} else if loadedR[reg] != q {
					exec += reconT
					loadedR[reg] = q
				}
			}
			w.fineExec += wt * exec
			w.fineLoad += wt * load
			if !w.sawMoved {
				w.leadFine += wt * (exec + load)
			}
			w.sawFine = true
		}
	}
	// resolve charges each region's symbolic first load against a start
	// residency: the empty fabric (initial=true; with no partitions at all
	// the replay treats partition 0 as trivially resident) or the walk's own
	// end state (the steady-state frames, which start and end in loadedR).
	resolve := func(initial bool) frameWalk {
		v := w
		for reg := 0; reg < regions; reg++ {
			p := firstNeed[reg]
			if p < 0 {
				continue
			}
			if initial {
				start := -1
				if pm.NumPartitions == 0 && reg == 0 {
					start = 0
				}
				if p == start {
					continue
				}
			} else if p == loadedR[reg] {
				continue
			}
			if firstStraddle[reg] {
				v.fineExec += reconT
			} else {
				v.fineLoad += reconT
			}
			if firstLead[reg] {
				v.leadFine += reconT
			}
		}
		return v
	}
	first := resolve(true)
	last := first
	frames := int64(cfg.Frames)
	if cfg.Frames > 1 {
		last = resolve(false)
	}

	// Frame-1 chain: frame 1 is fully serial and later frames never delay
	// it. Prefetch can hide only the configuration loads (inside the
	// frame's own data-path windows), so they are the only term dropped.
	chain1 := first.fineExec + first.coarse + first.mem
	chainS := last.fineExec + last.coarse + last.mem
	if !cfg.Prefetch {
		chain1 += first.fineLoad
		chainS += last.fineLoad
	}
	floor := chain1
	if cfg.Frames > 1 {
		fine1 := first.fineExec + first.fineLoad
		fineS := last.fineExec + last.fineLoad
		if first.sawFine {
			// Fine-anchored: the last frame's first fine event starts no
			// earlier than the fine timeline's F−1 preceding frames of
			// charges (execution, crossings and loads all occupy it, with
			// or without prefetch); from that event the last frame chains
			// serially, minus its leading moved windows.
			if f := fine1 + (frames-2)*fineS + chainS - last.leadMoved; f > floor {
				floor = f
			}
			// Pure fine occupancy — can beat the anchored chain under
			// prefetch, where chainS drops the loads.
			if f := fine1 + (frames-1)*fineS; f > floor {
				floor = f
			}
		}
		if first.sawMoved {
			// Coarse-anchored: the data-path serves frames in order, so the
			// last frame's first kernel starts no earlier than F−1 frames
			// of data-path occupancy; its own transfer precedes that start,
			// so it is excluded from the remaining chain.
			if f := (frames-1)*last.coarse + chainS - last.leadFine - last.firstMovedTx; f > floor {
				floor = f
			}
			// Transfer-channel-anchored: same argument at the first
			// transfer of the last frame.
			if f := (frames-1)*last.mem + chainS - last.leadFine; f > floor {
				floor = f
			}
		}
	}
	return ceilDiv(floor, ratio), nil
}

// replay is the event-driven core shared by Simulate and MakespanPacked: it
// runs the trace against the mapping pm packs and returns the makespan in
// ticks. cfg must already be normalized and a must be non-nil. When rep is
// non-nil the full occupancy report and per-kernel timeline are filled in;
// when it is nil the loop tracks only the makespan and skips every
// per-kernel allocation.
func (r *Replayer) replay(ctx context.Context, cfg Config, pm *finegrain.PackedMapping, a *Arena, rep *Report) (int64, error) {
	in := r.in
	f := in.F
	n := len(f.Blocks)
	if err := a.load(r, cfg.Ports, pm); err != nil {
		return 0, err
	}
	moved := a.moved
	latT, txT, execT := a.latT, a.txT, a.execT
	ratio := int64(in.Plat.Coarse.ClockRatio)
	reconT := int64(in.Plat.Fine.RegionReconfigCycles()) * ratio
	regions := pm.Regions

	trace := r.trace

	// Prefetch oracle: the temporal partition the sequencer will need next
	// on the fine fabric after each trace position (-1 when no fine-grain
	// block follows). One backward pass over the tokens serves every frame
	// and every repetition: inside a body the next need is fixed (nextPart,
	// one entry per stored position, -1 past the body's last fine block);
	// past it, a repetition that wraps around needs the body's first fine
	// partition and the token's last repetition needs whatever follows the
	// token (tails).
	var nextPart, tails []int32
	if cfg.Prefetch {
		if cap(a.nextPart) < r.bodyLen {
			a.nextPart = make([]int32, r.bodyLen)
		}
		if cap(a.tails) < 2*len(trace) {
			a.tails = make([]int32, 2*len(trace))
		}
		nextPart, tails = a.nextPart[:r.bodyLen], a.tails[:2*len(trace)]
		after := int32(-1)
		pos := r.bodyLen
		for t := len(trace) - 1; t >= 0; t-- {
			body := trace[t].Body
			pos -= len(body)
			need := int32(-1)
			for i := len(body) - 1; i >= 0; i-- {
				nextPart[pos+i] = need
				if !moved[body[i]] {
					need = int32(pm.FirstPart[body[i]])
				}
			}
			tails[2*t], tails[2*t+1] = after, after
			if need >= 0 {
				tails[2*t], after = need, need
			}
		}
	}

	// Event-driven replay over three resources. All times are in ticks
	// (T_CGC cycles = FPGA cycles x ClockRatio), so coarse-grain latencies
	// stay integral and the final makespan converts with one ceiling
	// division — which is what makes contention-free single-frame runs agree
	// with the analytical model cycle for cycle.
	var (
		fineBusyT, fineReconT   int64
		coarseBusyT, memBusyT   int64
		makespan                int64
		reconfigs, hiddenReconT int64
	)
	// Per-region sequencer state: st.loadedR[reg] is the partition resident
	// in region reg (partition p lives in region p % regions). With one
	// region this is the paper's single loaded-partition scalar.
	a.growRegions(regions)
	st := seqState{prefetchPart: -1, loadedR: a.loadedR}
	if pm.NumPartitions == 0 {
		st.loadedR[0] = 0 // nothing to configure
	}
	var kernels []kernelTimes // per block; nil on makespan-only replays
	if rep != nil {
		kernels = make([]kernelTimes, n)
		for i := range kernels {
			kernels[i].first = -1
		}
	}

	// Steady-state fast-forward (makespan-only replays). Every frame runs
	// the identical trace, and within a frame events chain through prevEnd
	// (reset to zero) plus st. If st at a frame start is st at the previous
	// frame start translated by one delta d, the upcoming frame is the
	// previous one translated by d — and by induction so is every frame
	// after it, so the remaining frames contribute exactly frameMax + k·d and
	// the replay stops walking. The same argument holds inside a frame for
	// the repetitions of a token, which play one body: once a repetition
	// moves prevEnd and st by one d, every later one moves them by d again,
	// so the replay jumps to the token's last repetition and plays that one
	// explicitly, because its prefetch oracle differs past the body's last
	// fine block. Both compare st only on the resources the period uses
	// (tokUse). Reports need every event and OnFrame callbacks every frame,
	// so they opt out of the respective fast-forward.
	var tokUse []uint8
	var traceUse uint8
	if rep == nil {
		if cap(a.tokUse) < len(trace) {
			a.tokUse = make([]uint8, len(trace))
		}
		tokUse = a.tokUse[:len(trace)]
		for t, tok := range trace {
			var use uint8
			for _, b := range tok.Body {
				if moved[b] {
					use |= useCoarse
				} else {
					use |= useFine
				}
			}
			tokUse[t] = use
			traceUse |= use
		}
	}
	frameForward := rep == nil && cfg.OnFrame == nil
	var frameMax int64
	budget := 1 << 16 // events until the next context poll
	for frame := 0; frame < cfg.Frames; frame++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if frameForward {
			// frameMax still holds the max event end of the frame that just
			// finished — the one the remaining frames would replicate.
			if frame > 0 {
				if d, ok := st.advance(&a.frameSnap, traceUse); ok {
					makespan = max64(makespan, frameMax+int64(cfg.Frames-frame)*d)
					break
				}
			}
			st.saveTo(&a.frameSnap)
		}
		// prevEnd is the program-order completion within this frame: every
		// event starts no earlier and ends there, so it is also the frame's
		// latest event end.
		var prevEnd int64
		pos := 0 // stored position of the current body's first block
		for t, tok := range trace {
			body := tok.Body
			var use uint8
			if tok.Reps > 2 && tokUse != nil {
				use = tokUse[t]
			}
			for k := uint64(1); k <= tok.Reps; k++ {
				// Snapshot the state when a repetition after the next one
				// could still be skipped.
				check := use != 0 && k+1 < tok.Reps
				var sPrev int64
				if check {
					sPrev = prevEnd
					st.saveTo(&a.repSnap)
				}
				for i, b := range body {
					if budget--; budget == 0 {
						budget = 1 << 16
						if err := ctx.Err(); err != nil {
							return 0, err
						}
					}
					id := int(b)
					if moved[id] {
						// Transfer live-ins/outs through the shared memory, then
						// execute on the data-path. Both resources serve
						// pipelined frames in order.
						mStart := max64(prevEnd, st.memFree)
						mEnd := mStart + txT[id]
						st.memFree = mEnd
						memBusyT += txT[id]
						cStart := max64(mEnd, st.coarseFree)
						cEnd := cStart + latT[id]
						st.coarseFree = cEnd
						coarseBusyT += latT[id]
						prevEnd = cEnd
						if kernels != nil {
							kernels[id].note(mStart, cEnd, latT[id])
						}

						// The fine fabric idles under this window: with
						// prefetch the sequencer uses it to load the next
						// block's configuration — past the body's last fine
						// block, the one a wrapping repetition or the token's
						// last repetition needs.
						if cfg.Prefetch && st.prefetchPart < 0 {
							need := int(nextPart[pos+i])
							if need < 0 {
								if k < tok.Reps {
									need = int(tails[2*t])
								} else {
									need = int(tails[2*t+1])
								}
							}
							if need >= 0 && st.loadedR[need%regions] != need {
								st.fineFree = max64(st.fineFree, mStart) + reconT
								fineReconT += reconT
								reconfigs++
								st.prefetchPart = need
							}
						}
						continue
					}

					start := max64(prevEnd, st.fineFree)
					need := pm.FirstPart[id]
					if reg := need % regions; st.loadedR[reg] != need {
						if st.prefetchPart == need {
							// Configuration already (being) loaded during a
							// previous data-path window — the load is the
							// fabric's last event, so start already waits for
							// it; any remaining load time still stalls.
							stall := max64(0, st.fineFree-prevEnd)
							hiddenReconT += max64(0, reconT-stall)
						} else {
							// On-demand load: the region reconfigures, then
							// executes.
							reconfigs++
							fineReconT += reconT
							start += reconT
						}
						st.loadedR[reg] = need
					}
					st.prefetchPart = -1
					// Straddling the block across partitions reloads a region
					// only when the next partition's region holds something
					// else — with one region that is every boundary, the
					// paper's model; with more, consecutive partitions land in
					// different regions and only wrap-around revisits reload.
					var strT int64
					for q := need + 1; q <= pm.LastPart[id]; q++ {
						if reg := q % regions; st.loadedR[reg] != q {
							strT += reconT
							reconfigs++
							st.loadedR[reg] = q
						}
					}
					end := start + execT[id] + strT
					fineBusyT += execT[id]
					fineReconT += strT
					st.fineFree = end
					prevEnd = end
					if kernels != nil {
						kernels[id].note(start, end, execT[id])
					}
				}
				if !check {
					continue
				}
				if d, ok := st.advance(&a.repSnap, use); ok && prevEnd-sPrev == d {
					skip := int64(tok.Reps-1-k) * d
					prevEnd += skip
					st.shift(skip, use)
					k = tok.Reps - 1
				}
			}
			pos += len(body)
		}
		frameMax = prevEnd
		makespan = max64(makespan, prevEnd)
		if cfg.OnFrame != nil {
			cfg.OnFrame(frame+1, ceilDiv(makespan, ratio))
		}
	}

	if rep == nil {
		return makespan, nil
	}

	// The model charges its crossing count once per frame (its per-frame
	// t_FPGA just scales), so the comparable total is crossings × frames —
	// Reconfigs likewise accumulates over frames.
	rep.ModelCrossings = pm.Crossings(in.Freq, in.Edges) * int64(cfg.Frames)
	rep.Reconfigs = reconfigs
	rep.TotalCycles = ceilDiv(makespan, ratio)
	rep.FineBusy = ceilDiv(fineBusyT, ratio)
	rep.FineReconfig = ceilDiv(fineReconT, ratio)
	rep.FineIdle = max64(0, rep.TotalCycles-rep.FineBusy-rep.FineReconfig)
	rep.CoarseBusy = ceilDiv(coarseBusyT, ratio)
	rep.CoarseIdle = max64(0, rep.TotalCycles-rep.CoarseBusy)
	rep.MemBusy = ceilDiv(memBusyT, ratio)
	rep.HiddenReconfigCycles = ceilDiv(hiddenReconT, ratio)

	for id := 0; id < n; id++ {
		k := kernels[id]
		if k.invocations == 0 {
			continue
		}
		fabric := "fine"
		if moved[id] {
			fabric = "coarse"
		}
		rep.Kernels = append(rep.Kernels, KernelStat{
			Block:       ir.BlockID(id),
			Name:        f.Blocks[id].Name,
			Fabric:      fabric,
			Invocations: k.invocations,
			BusyCycles:  ceilDiv(k.busy, ratio),
			FirstStart:  k.first / ratio,
			LastEnd:     ceilDiv(k.last, ratio),
		})
	}
	return makespan, nil
}
