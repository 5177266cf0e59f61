// Package hybridpart reproduces the partitioning methodology of Galanis et
// al., "A Partitioning Methodology for Accelerating Applications in Hybrid
// Reconfigurable Platforms" (DATE 2004): applications written in a C subset
// are profiled at the basic-block level, their kernels are ordered by
// total_weight = exec_freq × bb_weight, and a partitioning engine moves
// kernels one by one from the fine-grain (FPGA) fabric to the coarse-grain
// CGC data-path until a timing constraint is met.
//
// The package is a facade over the internal substrates:
//
//	minic/lower  — C-subset frontend and CDFG construction (SUIF stand-in)
//	interp       — profiling interpreter (Lex-instrumentation stand-in)
//	analysis     — kernel extraction and ordering (eq. 1)
//	finegrain    — Figure-3 temporal partitioning onto the FPGA
//	coarsegrain  — list scheduling + CGC binding (FPL'04 data-path)
//	partition    — the partitioning engine (eq. 2 or simulated makespan)
//	explore      — design-space-exploration engine (grid sweeps)
//	platform     — platform characterization and the preset registry
//	apps         — the OFDM transmitter and JPEG encoder benchmarks
//	cache        — content-addressed result caching + singleflight
//	store        — pluggable cache backends: in-memory LRU, disk store
//	cluster      — consistent-hash ring for fingerprint-sharded fleets
//	server       — partitioning-as-a-service HTTP front end (cmd/hservd)
//	sim          — discrete-event co-simulator of the hybrid platform
//
// # Quickstart
//
// The API has two nouns. A Workload is a compiled application plus the
// execution profile it accumulates; an Engine is a fixed configuration of
// the platform and engine knobs, built from functional options. Options is
// the one description of that knob set: WithOptions installs a whole
// Options value, the granular options edit single knobs, and NewEngine
// checks the final knob set once with Options.Validate. Compile a mini-C
// source, profile one execution, and partition against a timing
// constraint:
//
//	w, _ := hybridpart.NewWorkload(src, "main_fn")
//	w.Run()                                   // dynamic analysis
//	eng, _ := hybridpart.NewEngine(hybridpart.WithConstraint(60000))
//	res, _ := eng.Partition(ctx, w)
//	fmt.Println(res.Format())
//
// Every Engine method takes a context.Context, honored between kernel moves
// and between sweep cells; WithObserver streams structured progress events
// (move-by-move trajectory, per-cell sweep completion) while a run is in
// flight.
//
// # Design-space exploration
//
// The paper's evaluation (Tables 2–3) is a grid sweep over A_FPGA values
// and CGC counts. Engine.Sweep evaluates such grids on a bounded worker
// pool, compiling and profiling each benchmark exactly once (profiling is
// input-deterministic, so the block frequencies are shared by every cell):
//
//	rs, _ := eng.Sweep(ctx, hybridpart.SweepSpec{
//		Benchmarks: []string{hybridpart.BenchOFDM},
//		Areas:      []int{1500, 5000},
//		CGCs:       []int{2, 3},
//	})
//	rs.WriteCSV(os.Stdout)
//
// # Co-simulation
//
// The analytical model predicts; Engine.Simulate checks. It replays the
// workload's profiled CDFG trace on a discrete-event model of the platform
// — the sequencer dispatching each kernel invocation to its fabric,
// temporal-partition swaps (optionally prefetched during data-path
// windows), list-scheduled CGC execution, shared-memory transfer slots and
// the two-stage frame pipeline — and reports simulated cycles, per-fabric
// utilization, a per-kernel timeline and a validation of the model's
// prediction. On contention-free single-frame configurations the simulator
// reproduces the model cycle for cycle; WithSimFrames, WithSimPorts and
// WithSimPrefetch explore what the closed forms only idealize:
//
//	eng, _ := hybridpart.NewEngine(hybridpart.WithSimFrames(16), hybridpart.WithSimPrefetch(true))
//	rep, _ := eng.Simulate(ctx, w)
//	fmt.Println(rep.Validation.Exact, rep.Format())
//
// # Partial dynamic reconfiguration
//
// WithRegions(R) splits the fine-grain fabric into R independently
// reconfigurable regions of Area/R units each — the platform model of
// partial dynamic reconfiguration. A temporal partition resides in region
// p mod R and a region reloads in ceil(ReconfigCycles/R) cycles, with
// loads serialized through the single configuration port; partitions in
// different regions coexist instead of evicting each other, so
// reconfiguration-bound workloads can beat even single-context prefetch.
// Each partition packs against the region area, so small fabrics trade
// packing quality for residency. R = 1 (the default) is the legacy
// monolithic context, bit for bit. The analytical crossing rule is
// generalized but optimistic at R > 1; the simulator is authoritative, and
// SimReport.Validation notes the distinction. Regions is a SweepSpec axis
// and a "regions" field on the partition/simulate wire types.
//
// # Feedback-directed partitioning
//
// The closed form the move loop optimizes diverges from executed reality
// whenever frames, ports or prefetch matter, so the engine can pick a
// partition the simulator proves is not the fastest one.
// WithObjective(ObjectiveSimulated) closes that loop: every trajectory
// prefix is scored by replaying the canonical trace through the
// co-simulator (under the engine's WithSimFrames/WithSimPorts/
// WithSimPrefetch operating point) and the mapping with the minimal
// simulated makespan wins. WithRerank(k) is the cheap middle ground — the
// closed-form loop runs as usual, then the k best prefixes are re-scored by
// simulation (k = -1 re-scores all, provably identical to the full
// simulated objective). Results carry the chosen mapping's simulated
// makespan, baseline and speedup whenever any sim knob is active; all sim
// knobs live in Options and therefore in Fingerprint(). SweepSpec's
// Frames/Ports/Prefetch/Objectives axes chart simulated speedup across
// grids:
//
//	eng, _ := hybridpart.NewEngine(
//		hybridpart.WithConstraint(60000),
//		hybridpart.WithSimFrames(8),
//		hybridpart.WithObjective(hybridpart.ObjectiveSimulated),
//	)
//	res, _ := eng.Partition(ctx, w) // res.SimulatedCycles < the model objective's
//
// The replayed trace is loop-compressed: sim.BuildTrace rebuilds the
// canonical trace from the profile as (body, reps) tokens, folding each
// loop's repetitions as its Hierholzer walk discovers them, and every
// scorer walks the tokens — one pass at weight 1 and one at weight reps−1
// for the walk bound, a steady-state jump to the last repetition for the
// makespan — so a candidate costs O(tokens), not O(block visits).
//
// Every mapping a run scores is a prefix of its move trajectory, and the
// move loop keeps one record per prefix (partition.Prefix): the moved
// kernel, the eq. 2 components and the Figure 3 packing of the blocks left
// on the FPGA, packed once, from the predecessor's packing at the block the
// move took off. The scorer reads those packings instead of repacking, and
// its memo is indexed by record. The records, the replay arena and the
// memo are per-run scratch from one sync.Pool.
//
// Simulated scoring is pruned, at every frame count: candidates are bounded
// by admissible lower bounds and only those that can still beat the
// incumbent replay, one at a time in ascending-bound order on the run's
// replay arena. The cheap closed-form bound (sim.Replayer.LowerBound,
// taken for every prefix in one pass along the trajectory) orders a
// best-first queue; the costlier fine-fabric walk (FineWalkBoundPacked) is
// taken only for a candidate that reaches the front, so most pruned
// candidates never pay for it. The outcome is bit-identical to scoring
// every candidate — ties break on trajectory index — and Result.SimStats
// reports the scored/pruned counters, which are deterministic for a given
// run. The loop structure the analysis step needs (dominators, natural
// loops) is built once per App by Compile; each run only weighs its
// profile against it.
//
// # Service
//
// The service's default objective is ObjectiveSimulated: a POST
// /v1/partition request that names no objective, options or rerank runs
// under simulated scoring and reports "objective": "sim" on the wire (send
// "objective": "model" for the closed-form-only loop). POST /v1/simulate is
// unchanged: it validates the model at an explicit operating point.
//
// Every partition, energy and simulate request resolves to one Options
// value — a preset or a full "options" override, with the top-level
// shortcuts layered on top — and Options.Validate checks it before the
// request is fingerprinted, looked up, admitted, compiled or profiled. An
// invalid knob set is a 400 carrying the validator's message.
//
// cmd/hservd exposes the Engine over HTTP/JSON (internal/server), fronted
// by a bounded content-addressed result cache with request coalescing
// (internal/cache). The cache keys combine a workload's SourceHash with
// Options.Fingerprint — the canonical, field-order-independent hash of the
// full knob set: one "Name=value" line per field in sorted name order,
// appended without reflection or fmt and byte for byte the lines a
// reflective walk prints, so stored keys never move — and sweep progress
// streams to clients as server-sent events via WriteSSE. POST /v1/simulate
// serves the co-simulator through the same cache. See the README's
// "Running as a service" section.
//
// The store behind the cache is pluggable (internal/store): the default
// in-memory LRU, or a disk-backed content-addressed store (-cache-dir) so
// a restarted replica serves its first repeat request as a hit. Several
// replicas form a fleet (-self/-peers): cache keys are sharded over a
// consistent-hash ring (internal/cluster) and non-owned requests are
// forwarded to the owning replica, so the fleet stores one copy of each
// result and coalesces identical requests globally. GET /metrics exports
// every counter in Prometheus text form, and -max-sim-cost arms cost-based
// admission control — sim-scored bursts over the budget are shed with 429 +
// Retry-After instead of piling up. See the README's "Running a fleet"
// section.
//
// Every request is traced end to end (internal/obs, dependency-free): a
// root span per /v1/* request, propagated across fleet forwards via the
// W3C traceparent header and threaded by context through compile, profile,
// cache probe, admission, each move-loop iteration and each sim.ScoreBatch
// — so one forwarded request is one distributed trace. Finished traces
// land in a bounded ring served by GET /debug/traces (list, filterable by
// ?endpoint= and ?min_ms=) and GET /debug/traces/{id} (Chrome trace-event
// JSON, loadable in Perfetto; fleet reads merge every replica's spans).
// hpart/hsim/hsweep emit the same format via -trace-out (one shared
// cliutil.TraceRun helper), -slow-ms logs over-threshold requests through
// log/slog, and -debug-addr serves net/http/pprof on a separate listener.
//
// On top of the trace ring sits a flight recorder. Finalized traces fold
// their named stage spans (compile, profile, cache.lookup, store.get/put,
// admission, partition.moveloop, sim.argmin, sim.ScoreBatch, sim.report,
// cluster.forward) into per-endpoint latency histograms on /metrics
// (hservd_stage_duration_seconds); an OpenMetrics-negotiated scrape
// (Accept: application/openmetrics-text) attaches exemplar trace IDs to
// populated buckets, each resolvable at /debug/traces/{id} — the exemplar
// line reads `... 3 # {trace_id="8a2f..."} 0.00132 1754612345.1`: bucket
// count, then the witness trace, its observed seconds and end time.
// Retention is always tail-sampled (-trace-keep-slow K, default 4, at
// least 1): error traces and the K slowest per endpoint are always kept,
// the rest sampled, with kept_error/kept_slow/sampled_out counters on
// /debug/stats and /metrics.
// -telemetry-interval samples runtime/metrics plus service-counter deltas
// into a ring behind GET /debug/telemetry and hservd_runtime_* gauges, and
// GET /debug/fleet fans out to every peer's stats and telemetry for one
// merged health document:
//
//	$ curl -s http://127.0.0.1:9201/debug/fleet | jq '{healthy, unhealthy}'
//	{
//	  "healthy": 2,
//	  "unhealthy": 0
//	}
//
// (kill a replica and unhealthy flips to 1, the dead row carrying its dial
// error inline). See the README's "Observability" section.
package hybridpart
