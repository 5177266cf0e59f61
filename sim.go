package hybridpart

import (
	"context"
	"fmt"
	"strings"

	"hybridpart/internal/ir"
	"hybridpart/internal/obs"
	"hybridpart/internal/pipeline"
	"hybridpart/internal/sim"
)

// SimSpec holds the co-simulation knobs. The zero value is the analytical
// model's own operating point — one frame, one transfer port, no
// configuration prefetch — which is the configuration on which the
// simulator reproduces the model's cycle counts exactly.
type SimSpec struct {
	// Frames replays the profiled trace this many times (one replay per
	// application frame, 0 = 1). With more than one frame the fabrics
	// pipeline as in internal/pipeline: frame i+1's fine-grain work starts
	// while frame i's kernels still occupy the data-path.
	Frames int
	// Ports widens the fabric-to-fabric transfer channel (0 = 1, the
	// model's serialization assumption). Transfers stripe their words over
	// the ports; overlapping transfers from pipelined frames queue on the
	// channel instead of summing like t_comm.
	Ports int
	// Prefetch overlaps the next temporal partition's bitstream load with
	// data-path execution instead of stalling the fine fabric on demand.
	Prefetch bool
}

// normalized resolves zero frames and ports to 1.
func (s SimSpec) normalized() SimSpec {
	s.Frames = max(s.Frames, 1)
	s.Ports = max(s.Ports, 1)
	return s
}

// FabricUtil is one fabric's occupancy over the simulated makespan, in FPGA
// cycles. Utilization is the busy fraction (reconfiguration time excluded).
type FabricUtil struct {
	BusyCycles     int64   `json:"busy_cycles"`
	ReconfigCycles int64   `json:"reconfig_cycles"`
	IdleCycles     int64   `json:"idle_cycles"`
	Utilization    float64 `json:"utilization"`
}

// SimKernel is one row of the per-kernel timeline: a basic block's
// aggregate fabric occupancy across every simulated invocation.
type SimKernel struct {
	Block       int    `json:"block"`
	Name        string `json:"name"`
	Fabric      string `json:"fabric"` // "fine" or "coarse"
	Invocations uint64 `json:"invocations"`
	BusyCycles  int64  `json:"busy_cycles"`
	FirstStart  int64  `json:"first_start"`
	LastEnd     int64  `json:"last_end"`
}

// SimValidation compares the simulated execution against the analytical
// model's prediction for the same mapping. On a single contention-free
// frame without prefetch the two agree exactly; every deviation is a model
// assumption the simulator does not share, spelled out in Notes.
type SimValidation struct {
	ModelInitialCycles int64 `json:"model_initial_cycles"`
	ModelFinalCycles   int64 `json:"model_final_cycles"`
	SimInitialCycles   int64 `json:"sim_initial_cycles"`
	SimFinalCycles     int64 `json:"sim_final_cycles"`
	// ModelSpeedup and SimSpeedup are the initial/final cycle ratios;
	// SpeedupErrorPct is the simulated speedup's deviation from the model's
	// in percent.
	ModelSpeedup    float64 `json:"model_speedup"`
	SimSpeedup      float64 `json:"sim_speedup"`
	SpeedupErrorPct float64 `json:"speedup_error_pct"`
	// Exact reports cycle-for-cycle agreement on both the all-FPGA baseline
	// and the partitioned mapping.
	Exact bool     `json:"exact"`
	Notes []string `json:"notes,omitempty"`
}

// SimReport is the outcome of a co-simulation: the partitioned mapping and
// the all-FPGA baseline replayed on the simulated platform, plus the
// validation against the analytical model. Its JSON encoding is the body of
// POST /v1/simulate and of hsim -json.
type SimReport struct {
	Frames   int  `json:"frames"`
	Ports    int  `json:"ports"`
	Prefetch bool `json:"prefetch"`
	// Regions is the number of independently reconfigurable fine-grain
	// regions simulated; 0 on the paper's monolithic context, which keeps
	// the field off the wire.
	Regions int `json:"regions,omitempty"`
	// Objective names the move-loop objective the underlying partitioning
	// run optimized (the simulated mapping is that run's choice).
	Objective string `json:"objective"`
	// Runs is the number of profiled executions folded into the replayed
	// trace (one per Workload.Run call).
	Runs int `json:"runs"`

	// TotalCycles is the simulated makespan of the partitioned mapping;
	// BaselineCycles the simulated all-FPGA makespan. FPGA cycles. Speedup
	// is BaselineCycles/TotalCycles, 1 when TotalCycles is 0.
	TotalCycles    int64   `json:"total_cycles"`
	BaselineCycles int64   `json:"baseline_cycles"`
	Speedup        float64 `json:"speedup"`

	Fine   FabricUtil `json:"fine"`
	Coarse FabricUtil `json:"coarse"`
	Mem    FabricUtil `json:"mem"`

	// Reconfigs counts performed configuration loads across every frame;
	// ModelCrossings is what the analytical model charges for the same
	// mapping and frame count (its crossing term, once per frame).
	Reconfigs      int64 `json:"reconfigs"`
	ModelCrossings int64 `json:"model_crossings"`
	// HiddenReconfigCycles is reconfiguration time overlapped with
	// data-path execution by prefetch.
	HiddenReconfigCycles int64 `json:"hidden_reconfig_cycles"`

	Kernels    []SimKernel   `json:"kernels,omitempty"`
	Validation SimValidation `json:"validation"`
}

// simSpeedup is the baseline-over-partitioned speedup, 1 on an empty
// makespan.
func simSpeedup(baseline, total int64) float64 {
	if total == 0 {
		return 1
	}
	return float64(baseline) / float64(total)
}

// Format renders the report as a fixed-layout text table: headline cycles,
// per-fabric utilization, the per-kernel timeline and the validation
// section. The layout is deterministic — equal reports format equally.
func (r *SimReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Simulated frames:          %d (ports %d, prefetch %v, objective %s, %d profiled run(s))\n",
		r.Frames, r.Ports, r.Prefetch, r.Objective, r.Runs)
	if r.Regions > 1 {
		fmt.Fprintf(&sb, "Reconfigurable regions:    %d\n", r.Regions)
	}
	fmt.Fprintf(&sb, "Simulated cycles (all-FPGA): %d\n", r.BaselineCycles)
	fmt.Fprintf(&sb, "Simulated cycles (partitioned): %d\n", r.TotalCycles)
	fmt.Fprintf(&sb, "Simulated speedup:         %.3f\n", r.Speedup)
	fmt.Fprintf(&sb, "Reconfigurations:          %d (model charges %d; %d cycles hidden by prefetch)\n",
		r.Reconfigs, r.ModelCrossings, r.HiddenReconfigCycles)
	fmt.Fprintf(&sb, "\n%-12s %12s %12s %12s %8s\n", "fabric", "busy", "reconfig", "idle", "util")
	fmt.Fprintf(&sb, "%-12s %12d %12d %12d %7.1f%%\n", "fine-grain",
		r.Fine.BusyCycles, r.Fine.ReconfigCycles, r.Fine.IdleCycles, 100*r.Fine.Utilization)
	fmt.Fprintf(&sb, "%-12s %12d %12s %12d %7.1f%%\n", "coarse-grain",
		r.Coarse.BusyCycles, "-", r.Coarse.IdleCycles, 100*r.Coarse.Utilization)
	fmt.Fprintf(&sb, "%-12s %12d %12s %12d %7.1f%%\n", "transfers",
		r.Mem.BusyCycles, "-", r.Mem.IdleCycles, 100*r.Mem.Utilization)
	fmt.Fprintf(&sb, "\n%-6s %-14s %-8s %12s %12s %12s %12s\n",
		"block", "name", "fabric", "invocations", "busy", "first", "last")
	for _, k := range r.Kernels {
		fmt.Fprintf(&sb, "%-6d %-14s %-8s %12d %12d %12d %12d\n",
			k.Block, k.Name, k.Fabric, k.Invocations, k.BusyCycles, k.FirstStart, k.LastEnd)
	}
	fmt.Fprintf(&sb, "\nvalidation: model %d -> %d (speedup %.3f), simulated %d -> %d (speedup %.3f, error %+.2f%%)\n",
		r.Validation.ModelInitialCycles, r.Validation.ModelFinalCycles, r.Validation.ModelSpeedup,
		r.Validation.SimInitialCycles, r.Validation.SimFinalCycles, r.Validation.SimSpeedup,
		r.Validation.SpeedupErrorPct)
	for _, n := range r.Validation.Notes {
		fmt.Fprintf(&sb, "validation: %s\n", n)
	}
	return sb.String()
}

// Simulate runs the co-simulator against the workload's accumulated
// profile: it first partitions the workload with the engine's configured
// knobs (the analytical model), then replays the profiled CDFG trace
// against both the all-FPGA baseline and the partitioned mapping on a
// discrete-event model of the platform — the sequencer dispatching each
// kernel invocation to its fabric, temporal-partition swaps (optionally
// prefetched), list-scheduled data-path execution, shared-memory transfer
// slots and, for multi-frame specs, the two-stage frame pipeline.
//
// The context is checked between simulated frames; cancellation returns
// ctx.Err(). Frame completions stream to the observer as SimEvents. The
// simulation is deterministic: equal workloads and knobs produce an
// identical SimReport. The engine's WithSimFrames, WithSimPorts and
// WithSimPrefetch knobs set the operating point.
func (e *Engine) Simulate(ctx context.Context, w *Workload) (*SimReport, error) {
	app, prof, err := w.profiled()
	if err != nil {
		return nil, err
	}
	return e.SimulateProfiled(ctx, app, prof)
}

// SimulateProfiled is Simulate on a pre-compiled App and an explicit
// profile snapshot — see PartitionProfiled for when to prefer it over the
// Workload path.
func (e *Engine) SimulateProfiled(ctx context.Context, a *App, p *RunProfile) (*SimReport, error) {
	if a == nil || p == nil {
		return nil, fmt.Errorf("hybridpart: SimulateProfiled needs a non-nil app and profile")
	}
	// The engine's sim knobs (WithSimFrames/WithSimPorts/WithSimPrefetch,
	// fingerprinted in Options) are the operating point.
	spec := simSpecOf(e.opts).normalized()

	// The analytical side: the same silent partitioning run the service
	// caches — per-move events would be misleading here, the trajectory is
	// not this call's product. report=false because this call replays the
	// chosen mapping itself; when the run built a scorer (simulated
	// objective, re-rank or engine sim knobs) its Replayer — trace and
	// fine-grain floors — is reused for the report replays below instead
	// of being rebuilt.
	res, replayer, err := e.partitionScored(ctx, a, p, e.opts, nil, nil, false)
	if err != nil {
		return nil, err
	}
	moved := make([]ir.BlockID, len(res.Moved))
	for i, b := range res.Moved {
		moved[i] = ir.BlockID(b)
	}
	if replayer == nil {
		if replayer, err = a.newReplayer(ctx, p, e.opts.platform()); err != nil {
			return nil, err
		}
	}
	onFrame := func(stage string) func(int, int64) {
		if e.observer == nil {
			return nil
		}
		return func(frame int, cycles int64) {
			e.emit(SimEvent{Stage: stage, Cell: -1, Frame: frame, Frames: spec.Frames, Cycles: cycles})
		}
	}
	cfg := sim.Config{Frames: spec.Frames, Ports: spec.Ports, Prefetch: spec.Prefetch}

	cfg.OnFrame = onFrame("baseline")
	_, baseSpan := obs.Start(ctx, "sim.replay", obs.String("stage", "baseline"), obs.Int("frames", spec.Frames))
	base, err := replayer.Simulate(ctx, cfg, nil)
	baseSpan.End()
	if err != nil {
		return nil, err
	}
	cfg.OnFrame = onFrame("partitioned")
	_, partSpan := obs.Start(ctx, "sim.replay", obs.String("stage", "partitioned"), obs.Int("frames", spec.Frames))
	part, err := replayer.Simulate(ctx, cfg, moved)
	partSpan.End()
	if err != nil {
		return nil, err
	}

	rep := &SimReport{
		Frames:               spec.Frames,
		Ports:                spec.Ports,
		Prefetch:             spec.Prefetch,
		Objective:            e.opts.Objective.String(),
		Runs:                 part.Runs,
		TotalCycles:          part.TotalCycles,
		BaselineCycles:       base.TotalCycles,
		Speedup:              simSpeedup(base.TotalCycles, part.TotalCycles),
		Reconfigs:            part.Reconfigs,
		ModelCrossings:       part.ModelCrossings,
		HiddenReconfigCycles: part.HiddenReconfigCycles,
		Fine: FabricUtil{
			BusyCycles:     part.FineBusy,
			ReconfigCycles: part.FineReconfig,
			IdleCycles:     part.FineIdle,
			Utilization:    util(part.FineBusy, part.TotalCycles),
		},
		Coarse: FabricUtil{
			BusyCycles:  part.CoarseBusy,
			IdleCycles:  part.CoarseIdle,
			Utilization: util(part.CoarseBusy, part.TotalCycles),
		},
		Mem: FabricUtil{
			BusyCycles:  part.MemBusy,
			IdleCycles:  part.TotalCycles - part.MemBusy,
			Utilization: util(part.MemBusy, part.TotalCycles),
		},
	}
	if n := e.opts.platform().Fine.NumRegions(); n > 1 {
		rep.Regions = n
	}
	for _, k := range part.Kernels {
		rep.Kernels = append(rep.Kernels, SimKernel{
			Block:       int(k.Block),
			Name:        k.Name,
			Fabric:      k.Fabric,
			Invocations: k.Invocations,
			BusyCycles:  k.BusyCycles,
			FirstStart:  k.FirstStart,
			LastEnd:     k.LastEnd,
		})
	}
	rep.Validation = validate(res, rep, spec)
	return rep, nil
}

func util(busy, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(busy) / float64(total)
}

// validate builds the model-vs-simulation comparison. The model's
// multi-frame predictions come from the two-stage pipeline extension
// (internal/pipeline); for one frame they reduce to eq. 2's t_total and the
// all-FPGA initial cycles.
func validate(res *Result, rep *SimReport, spec SimSpec) SimValidation {
	modelInitial := pipeline.Model{TFine: res.InitialCycles}.Pipelined(spec.Frames)
	modelFinal := pipeline.Model{TFine: res.TFPGA, TCoarse: res.TCoarse, TComm: res.TComm}.Pipelined(spec.Frames)
	v := SimValidation{
		ModelInitialCycles: modelInitial,
		ModelFinalCycles:   modelFinal,
		SimInitialCycles:   rep.BaselineCycles,
		SimFinalCycles:     rep.TotalCycles,
	}
	if modelFinal > 0 {
		v.ModelSpeedup = float64(modelInitial) / float64(modelFinal)
	}
	v.SimSpeedup = rep.Speedup
	if v.ModelSpeedup > 0 {
		v.SpeedupErrorPct = 100 * (v.SimSpeedup - v.ModelSpeedup) / v.ModelSpeedup
	}
	v.Exact = v.SimInitialCycles == v.ModelInitialCycles && v.SimFinalCycles == v.ModelFinalCycles
	if v.Exact {
		v.Notes = append(v.Notes, "simulation reproduces the analytical model cycle for cycle")
		return v
	}
	if rep.Reconfigs != rep.ModelCrossings {
		v.Notes = append(v.Notes, fmt.Sprintf(
			"%d configuration loads simulated vs %d crossings charged by the model", rep.Reconfigs, rep.ModelCrossings))
	}
	if rep.Prefetch && rep.HiddenReconfigCycles > 0 {
		v.Notes = append(v.Notes, fmt.Sprintf(
			"prefetch hid %d reconfiguration cycles behind data-path execution", rep.HiddenReconfigCycles))
	}
	if rep.Ports > 1 {
		v.Notes = append(v.Notes, fmt.Sprintf(
			"%d transfer ports stripe each invocation's words; the model assumes serialized single-port transfers", rep.Ports))
	}
	if rep.Regions > 1 {
		v.Notes = append(v.Notes, fmt.Sprintf(
			"%d reconfigurable regions let partitions coexist; the model's crossing rule assumes optimistic residency", rep.Regions))
	}
	if spec.Frames > 1 {
		v.Notes = append(v.Notes, fmt.Sprintf(
			"event-level frame pipeline over %d frames vs the two-stage model's idealized overlap", spec.Frames))
	}
	if rep.Runs > 1 {
		v.Notes = append(v.Notes, fmt.Sprintf(
			"profile accumulates %d runs, replayed back to back within each frame", rep.Runs))
	}
	return v
}
