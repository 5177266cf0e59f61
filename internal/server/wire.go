package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"net/http"
	"sort"
	"strconv"

	"hybridpart"
)

// Wire types of the partitioning service. These are the one JSON shape of a
// partitioning result: the service's /v1/partition responses and the hpart
// -json CLI output both encode through them, so machine consumers see a
// single schema regardless of transport.

// ResultJSON is the wire form of hybridpart.Result. The simulated_* fields
// are present whenever the run consulted the co-simulator (a sim knob, the
// simulated objective or re-ranking); met always refers to the analytical
// t_total against the constraint.
type ResultJSON struct {
	InitialCycles     int64   `json:"initial_cycles"`
	InitialPartitions int     `json:"initial_partitions"`
	FinalCycles       int64   `json:"final_cycles"`
	CyclesInCGC       int64   `json:"cycles_in_cgc"`
	TFPGA             int64   `json:"t_fpga"`
	TCoarse           int64   `json:"t_coarse"`
	TComm             int64   `json:"t_comm"`
	Constraint        int64   `json:"constraint"`
	Met               bool    `json:"met"`
	ReductionPct      float64 `json:"reduction_pct"`
	Objective         string  `json:"objective"`
	Moved             []int   `json:"moved,omitempty"`
	Unmappable        []int   `json:"unmappable,omitempty"`
	Skipped           []int   `json:"skipped,omitempty"`

	SimulatedCycles         int64   `json:"simulated_cycles,omitempty"`
	SimulatedBaselineCycles int64   `json:"simulated_baseline_cycles,omitempty"`
	SimulatedSpeedup        float64 `json:"simulated_speedup,omitempty"`
}

// NewResultJSON converts a library Result to its wire form.
func NewResultJSON(r *hybridpart.Result) ResultJSON {
	return ResultJSON{
		InitialCycles:     r.InitialCycles,
		InitialPartitions: r.InitialPartitions,
		FinalCycles:       r.FinalCycles,
		CyclesInCGC:       r.CyclesInCGC,
		TFPGA:             r.TFPGA,
		TCoarse:           r.TCoarse,
		TComm:             r.TComm,
		Constraint:        r.Constraint,
		Met:               r.Met,
		ReductionPct:      r.ReductionPct(),
		Objective:         r.Objective.String(),
		Moved:             r.Moved,
		Unmappable:        r.Unmappable,
		Skipped:           r.Skipped,

		SimulatedCycles:         r.SimulatedCycles,
		SimulatedBaselineCycles: r.SimulatedBaselineCycles,
		SimulatedSpeedup:        r.SimulatedSpeedup,
	}
}

// MarshalResult is the canonical encoding of a partitioning result: compact
// JSON of the wire form plus a trailing newline. The service caches and
// serves exactly these bytes, which is what makes a cache hit byte-identical
// to the library path.
func MarshalResult(r *hybridpart.Result) ([]byte, error) {
	b, err := json.Marshal(NewResultJSON(r))
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// EnergyBreakdownJSON is the wire form of hybridpart.EnergyBreakdown.
type EnergyBreakdownJSON struct {
	Fine     float64 `json:"fine"`
	Coarse   float64 `json:"coarse"`
	Reconfig float64 `json:"reconfig"`
	Comm     float64 `json:"comm"`
}

// EnergyResultJSON is the wire form of hybridpart.EnergyResult.
type EnergyResultJSON struct {
	InitialEnergy float64             `json:"initial_energy"`
	FinalEnergy   float64             `json:"final_energy"`
	Initial       EnergyBreakdownJSON `json:"initial"`
	Final         EnergyBreakdownJSON `json:"final"`
	Budget        float64             `json:"budget"`
	Met           bool                `json:"met"`
	ReductionPct  float64             `json:"reduction_pct"`
	Moved         []int               `json:"moved,omitempty"`
	Unmappable    []int               `json:"unmappable,omitempty"`
}

// NewEnergyResultJSON converts a library EnergyResult to its wire form.
func NewEnergyResultJSON(r *hybridpart.EnergyResult) EnergyResultJSON {
	conv := func(b hybridpart.EnergyBreakdown) EnergyBreakdownJSON {
		return EnergyBreakdownJSON{Fine: b.Fine, Coarse: b.Coarse, Reconfig: b.Reconfig, Comm: b.Comm}
	}
	return EnergyResultJSON{
		InitialEnergy: r.InitialEnergy,
		FinalEnergy:   r.FinalEnergy,
		Initial:       conv(r.Initial),
		Final:         conv(r.Final),
		Budget:        r.Budget,
		Met:           r.Met,
		ReductionPct:  r.ReductionPct(),
		Moved:         r.Moved,
		Unmappable:    r.Unmappable,
	}
}

// MarshalEnergyResult is MarshalResult for the energy-constrained engine.
func MarshalEnergyResult(r *hybridpart.EnergyResult) ([]byte, error) {
	b, err := json.Marshal(NewEnergyResultJSON(r))
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// PartitionRequest is the body of POST /v1/partition and
// /v1/partition-energy. The workload is either a built-in benchmark
// (Benchmark + Seed) or inline mini-C source (Source + Entry, optionally
// Args and Inputs for the profiling run); exactly one of the two must be
// given. The platform comes from Preset or from a full Options override
// (mutually exclusive), with Constraint as a common shortcut layered on
// top. EnergyBudget is required by /v1/partition-energy and rejected by
// /v1/partition.
type PartitionRequest struct {
	// Benchmark selects a built-in application ("ofdm", "jpeg"); Seed its
	// deterministic input vectors.
	Benchmark string `json:"benchmark,omitempty"`
	Seed      uint32 `json:"seed,omitempty"`

	// Source is inline mini-C text; Entry the function to flatten and
	// profile (default "main_fn"). Args are scalar arguments for the
	// profiling run; Inputs preloads named global arrays before it. An
	// input array can hold a whole image, so its values decode through
	// Int32List's scanner rather than encoding/json's reflective one, with
	// the same accepted and rejected spellings.
	Source string               `json:"source,omitempty"`
	Entry  string               `json:"entry,omitempty"`
	Args   []int32              `json:"args,omitempty"`
	Inputs map[string]Int32List `json:"inputs,omitempty"`

	// Preset names a registered platform variant; Options replaces the
	// whole knob set instead. Constraint, when positive, overrides the
	// timing constraint of whichever base was chosen.
	Preset     string              `json:"preset,omitempty"`
	Options    *hybridpart.Options `json:"options,omitempty"`
	Constraint int64               `json:"constraint,omitempty"`

	// Objective selects the move-loop objective ("model" or "sim") and
	// Rerank re-scores the top-k trajectory prefixes by simulation (-1 =
	// all). Frames, Ports and Prefetch set the co-simulation operating
	// point; on /v1/partition any of them makes the response carry the
	// simulated_* fields. All five fold into the resolved Options — the one
	// fingerprinted location — so requests differing in any sim knob can
	// never share a cache entry.
	Objective string `json:"objective,omitempty"`
	Rerank    int    `json:"rerank,omitempty"`
	Frames    int    `json:"frames,omitempty"`
	Ports     int    `json:"ports,omitempty"`
	Prefetch  bool   `json:"prefetch,omitempty"`

	// Regions splits the fine-grain fabric into independently reconfigurable
	// regions (partial dynamic reconfiguration; 0 = the base's value, 1 =
	// monolithic). Like the sim knobs it folds into the resolved Options.
	Regions int `json:"regions,omitempty"`

	// EnergyBudget is the energy bound for /v1/partition-energy.
	EnergyBudget float64 `json:"energy_budget,omitempty"`
}

// Int32List is a JSON array of 32-bit integers. It decodes exactly what
// encoding/json accepts for a []int32 — whitespace anywhere, null elements
// (as 0), -0, and null for the whole list (as nil) — and rejects the rest:
// fractions, exponents, out-of-range values, strings, bools, objects and
// nested arrays. It scans the digits by hand into a slice presized from a
// comma count, with no reflection per element.
type Int32List []int32

// UnmarshalJSON implements json.Unmarshaler.
func (l *Int32List) UnmarshalJSON(data []byte) error {
	i := skipSpace(data, 0)
	if bytes.HasPrefix(data[i:], []byte("null")) && skipSpace(data, i+4) == len(data) {
		*l = nil
		return nil
	}
	if i == len(data) || data[i] != '[' {
		return errors.New("int32 list: want an array")
	}
	out := make([]int32, 0, bytes.Count(data, []byte{','})+1)
	i = skipSpace(data, i+1)
	for empty := i < len(data) && data[i] == ']'; !empty; {
		v, next, err := scanInt32(data, i)
		if err != nil {
			return fmt.Errorf("int32 list: element %d: %w", len(out), err)
		}
		out = append(out, v)
		i = skipSpace(data, next)
		if i < len(data) && data[i] == ']' {
			break
		}
		if i == len(data) || data[i] != ',' {
			return fmt.Errorf("int32 list: want ',' or ']' after element %d", len(out)-1)
		}
		i = skipSpace(data, i+1)
	}
	if skipSpace(data, i+1) != len(data) {
		return errors.New("int32 list: data after the array")
	}
	*l = out
	return nil
}

// scanInt32 parses one list element at data[i:]: null (as 0) or a JSON
// integer in int32 range. It returns the value and the index after it; a
// number that goes on into a fraction or an exponent is left for the caller
// to reject at the next byte.
func scanInt32(data []byte, i int) (int32, int, error) {
	if i < len(data) && data[i] == 'n' && bytes.HasPrefix(data[i:], []byte("null")) {
		return 0, i + 4, nil
	}
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		n = n*10 + int64(data[i]-'0')
		if n > 1<<31 {
			return 0, i, errors.New("value out of int32 range")
		}
	}
	switch {
	case i == start:
		return 0, i, errors.New("want an integer")
	case data[start] == '0' && i > start+1:
		return 0, i, errors.New("leading zero")
	}
	if neg {
		n = -n
	}
	if n > math.MaxInt32 {
		return 0, i, errors.New("value out of int32 range")
	}
	return int32(n), i, nil
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// validate checks the request shape: the wire fields, by name
// (transport-independent; resolveOptions validates the knob set they
// resolve to).
func (r *PartitionRequest) validate(energy bool) *httpError {
	switch {
	case r.Benchmark == "" && r.Source == "":
		return badRequest("need \"benchmark\" or \"source\"")
	case r.Benchmark != "" && r.Source != "":
		return badRequest("\"benchmark\" and \"source\" are mutually exclusive")
	case r.Benchmark != "" && !hybridpart.IsBenchmark(r.Benchmark):
		return notFound(fmt.Sprintf("unknown benchmark %q (have %v)", r.Benchmark, hybridpart.Benchmarks()))
	case r.Benchmark != "" && (len(r.Args) > 0 || len(r.Inputs) > 0):
		return badRequest("\"args\"/\"inputs\" apply only to \"source\" workloads")
	case r.Constraint < 0:
		return badRequest(fmt.Sprintf("\"constraint\" must be positive, got %d", r.Constraint))
	case energy && r.EnergyBudget <= 0:
		return badRequest("\"energy_budget\" must be positive for /v1/partition-energy")
	case !energy && r.EnergyBudget != 0:
		return badRequest("\"energy_budget\" applies only to /v1/partition-energy")
	case energy && (r.Objective != "" || r.Rerank != 0 || r.Frames != 0 || r.Ports != 0 || r.Prefetch):
		return badRequest("the co-simulation knobs apply only to timing-constrained partitioning")
	case energy && r.Regions != 0:
		return badRequest("\"regions\" applies only to timing-constrained partitioning")
	case r.Regions < 0:
		return badRequest(fmt.Sprintf("\"regions\" must be non-negative, got %d", r.Regions))
	case r.Rerank < -1:
		return badRequest(fmt.Sprintf("\"rerank\" must be -1 (all), 0 (off) or positive, got %d", r.Rerank))
	case r.Frames < 0:
		return badRequest(fmt.Sprintf("\"frames\" must be non-negative, got %d", r.Frames))
	case r.Frames > maxSimFrames:
		return badRequest(fmt.Sprintf("\"frames\" is %d, limit is %d", r.Frames, maxSimFrames))
	case r.Ports < 0:
		return badRequest(fmt.Sprintf("\"ports\" must be non-negative, got %d", r.Ports))
	}
	if _, err := hybridpart.ParseObjective(r.Objective); err != nil {
		return badRequest(err.Error())
	}
	return nil
}

// resolveOptions materializes the request's knob set: a full Options
// override is used verbatim, otherwise the preset (or the paper default)
// supplies the base; a positive Constraint and the co-simulation shortcuts
// then override either. The sim knobs land in Options — the location
// Fingerprint covers — which is what keeps every knob combination a
// distinct cache key. A knob set Options.Validate refuses is a 400 with
// the validator's message, before the request is fingerprinted, looked up,
// admitted, compiled or profiled.
func (r *PartitionRequest) resolveOptions() (hybridpart.Options, *httpError) {
	if r.Options != nil && r.Preset != "" {
		return hybridpart.Options{}, badRequest("\"preset\" and \"options\" are mutually exclusive")
	}
	opts := hybridpart.DefaultOptions()
	if r.Options != nil {
		opts = *r.Options
	} else if r.Preset != "" {
		var err error
		if opts, err = hybridpart.OptionsFor(r.Preset); err != nil {
			return hybridpart.Options{}, notFound(err.Error())
		}
	}
	if r.Constraint > 0 {
		opts.Constraint = r.Constraint
	}
	if r.Objective != "" {
		obj, err := hybridpart.ParseObjective(r.Objective)
		if err != nil {
			return hybridpart.Options{}, badRequest(err.Error())
		}
		opts.Objective = obj
	}
	if r.Rerank != 0 {
		opts.RerankK = r.Rerank
	}
	if r.Frames > 0 {
		opts.SimFrames = r.Frames
	}
	if r.Ports > 0 {
		opts.SimPorts = r.Ports
	}
	if r.Prefetch {
		opts.SimPrefetch = true
	}
	if r.Regions > 0 {
		opts.Regions = r.Regions
	}
	// The frames cap must hold for the resolved knobs, not just the
	// top-level shortcut — a full Options override is the other way to set
	// a client-controlled work multiplier.
	if opts.SimFrames > maxSimFrames {
		return hybridpart.Options{}, badRequest(fmt.Sprintf("\"frames\" is %d, limit is %d", opts.SimFrames, maxSimFrames))
	}
	if err := opts.Validate(); err != nil {
		return hybridpart.Options{}, badRequest(err.Error())
	}
	return opts, nil
}

// applyDefaultObjective flips a plain /v1/partition request onto the
// service's default move-loop objective, ObjectiveSimulated: the feedback-
// directed selection beats the closed-form model on every benchmark in the
// suite, and with branch-and-bound scoring it is cheap enough to be
// what a request gets when it does not ask. The flip applies only when the
// request leaves the whole objective dimension untouched — no "objective"
// field, no full "options" override, no "rerank" (re-ranking is mutually
// exclusive with the simulated objective) — so every explicit choice,
// including "objective": "model", is honored verbatim. It runs before
// fingerprinting, which is what makes a plain request and an explicit
// {"objective": "sim"} share one cache entry, byte for byte.
func (r *PartitionRequest) applyDefaultObjective() {
	if r.Objective == "" && r.Options == nil && r.Rerank == 0 {
		r.Objective = "sim"
	}
}

// maxScoringCost bounds one partition/simulate request's candidate-scoring
// cost in whole-trace replays, the same accounting /v1/sweep applies per
// cell: a run costs its frame count, times the trajectory factor when the
// move loop scores candidates by simulation (simulated objective or
// re-ranking) — each of those replays the trace once per trajectory prefix.
const maxScoringCost = 4 * maxSimFrames

// checkScoringCost caps a request's admission price, simCost of its
// resolved knob set, so a full Options override is charged like the
// equivalent shortcuts.
func checkScoringCost(cost int) *httpError {
	if cost > maxScoringCost {
		return &httpError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf(
			"request costs %d trace replays (frames, sim-scored runs weighted ×%d), limit is %d — lower \"frames\" or use \"objective\": \"model\"",
			cost, hybridpart.SimObjectiveReplayFactor, maxScoringCost)}
	}
	return nil
}

// entryOrDefault returns the entry function for source workloads.
func (r *PartitionRequest) entryOrDefault() string {
	if r.Entry != "" {
		return r.Entry
	}
	return "main_fn"
}

// fingerprint is the content address of the request: a SHA-256 over the
// workload identity (benchmark+seed, or source hash + entry + profiling
// inputs in sorted-name order), the resolved Options fingerprint, the
// request kind and — for energy requests — the budget. Equal requests hash
// equal by construction; the hash never includes the source text itself, so
// a cache hit is decided without compiling anything. The lines are appended
// with strconv, not fmt, and are byte for byte what "%s", "%d" and "%v"
// print, which keeps the keys of stored entries valid. A benchmark key's
// lines fit in one stack buffer and are hashed at once.
func (r *PartitionRequest) fingerprint(kind string, opts hybridpart.Options) string {
	if r.Benchmark == "" {
		return r.sourceFingerprint(kind, opts)
	}
	var buf [256]byte
	b := append(append(buf[:0], "kind="...), kind...)
	b = append(append(b, "\nbench="...), r.Benchmark...)
	b = strconv.AppendUint(append(b, "\nseed="...), uint64(r.Seed), 10)
	b = r.appendKeyTail(append(b, '\n'), kind, opts)
	sum := sha256.Sum256(b)
	return string(hex.AppendEncode(buf[:0], sum[:]))
}

// sourceFingerprint is fingerprint for a source workload. Its args and input
// lines are formatted in one small reused buffer and written to the hash in
// chunks: inputs run to 64K values. The buffer holds a chunk plus one more
// value and the closing "]\n".
func (r *PartitionRequest) sourceFingerprint(kind string, opts hybridpart.Options) string {
	h := sha256.New()
	b := make([]byte, 0, intsChunk+16)
	b = append(append(append(b, "kind="...), kind...), "\nsrc="...)
	b = append(append(b, hybridpart.SourceHash(r.Source)...), "\nentry="...)
	b = append(append(b, r.entryOrDefault()...), '\n')
	b = appendInts(h, append(b, "args="...), r.Args)
	h.Write(append(b, '\n'))
	names := make([]string, 0, len(r.Inputs))
	for n := range r.Inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b = append(append(append(b[:0], "input:"...), n...), '=')
		b = appendInts(h, b, r.Inputs[n])
		h.Write(append(b, '\n'))
	}
	h.Write(r.appendKeyTail(b[:0], kind, opts))
	return hex.EncodeToString(h.Sum(b[:0]))
}

// appendKeyTail appends the lines that follow the workload identity: the
// Options fingerprint and, for energy requests, the budget.
func (r *PartitionRequest) appendKeyTail(b []byte, kind string, opts hybridpart.Options) []byte {
	b = append(opts.AppendFingerprint(append(b, "opts="...)), '\n')
	if kind == "energy" {
		b = append(strconv.AppendFloat(append(b, "budget="...), r.EnergyBudget, 'g', -1, 64), '\n')
	}
	return b
}

// intsChunk is how many bytes appendInts gathers before it writes them out.
const intsChunk = 4096

// appendInts appends vs to b as fmt's %v prints an []int32: "[v v ...]".
// With a non-nil h, whenever b holds intsChunk bytes it writes b to h and
// starts b over, so a long list is formatted in one small buffer; it returns
// the bytes it has not written.
func appendInts(h hash.Hash, b []byte, vs []int32) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if h != nil && len(b) >= intsChunk {
			h.Write(b) // a hash.Hash never returns an error
			b = b[:0]
		}
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendInt(b, v)
	}
	return append(b, ']')
}

// digitPairs holds the two decimal digits of 00 to 99 in order.
var digitPairs = func() (t [200]byte) {
	for i := range 100 {
		t[2*i], t[2*i+1] = byte('0'+i/10), byte('0'+i%10)
	}
	return t
}()

// appendInt appends v in decimal, two digits at a time.
func appendInt(b []byte, v int32) []byte {
	u := uint32(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
	}
	var d [10]byte
	i := len(d)
	for u >= 100 {
		r := u % 100
		u /= 100
		i -= 2
		d[i], d[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if u >= 10 {
		i -= 2
		d[i], d[i+1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		i--
		d[i] = byte('0' + u)
	}
	return append(b, d[i:]...)
}

// SimulateRequest is the body of POST /v1/simulate: a PartitionRequest
// workload+platform (energy_budget excluded), whose frames/ports/prefetch/
// objective/rerank knobs select the simulated operating point. Zero
// frames/ports select the analytical model's operating point (one frame,
// one port).
type SimulateRequest struct {
	PartitionRequest
}

// maxSimFrames bounds one request's trace replays. Each frame re-walks the
// whole profiled trace (millions of events for JPEG), so frames is a
// client-controlled work multiplier and must be capped like /v1/sweep's
// grid size.
const maxSimFrames = 1024

// validate checks the simulate request's shape (the base partition-shape
// rules already cover the sim knobs).
func (r *SimulateRequest) validate() *httpError {
	return r.PartitionRequest.validate(false)
}

// normalizeSimOptions folds the documented-equivalent zero sim knobs of a
// resolved knob set onto their defaults (0 frames/ports = 1, the model's
// operating point) so equivalent requests fingerprint, cache and coalesce
// identically. It runs on the resolved Options — after a top-level
// "frames"/"ports" shortcut or a full Options override has been applied —
// so an explicit override like {"options":{"SimFrames":8}} is never
// clobbered by the default. /v1/partition must not share this: there a zero
// frame count means "no simulation at all", which is a different response
// shape than frames=1.
func normalizeSimOptions(opts *hybridpart.Options) {
	if opts.SimFrames == 0 {
		opts.SimFrames = 1
	}
	if opts.SimPorts == 0 {
		opts.SimPorts = 1
	}
}

// fingerprint is the simulate request's cache key: the base fingerprint
// under its own kind, so simulate results never collide with partition
// results for the same workload. The sim knobs need no separate hashing —
// resolveOptions folded them into opts, whose Fingerprint the base covers.
func (r *SimulateRequest) fingerprint(opts hybridpart.Options) string {
	return r.PartitionRequest.fingerprint("simulate", opts)
}

// FabricUtilJSON is the wire form of hybridpart.FabricUtil.
type FabricUtilJSON struct {
	BusyCycles     int64   `json:"busy_cycles"`
	ReconfigCycles int64   `json:"reconfig_cycles"`
	IdleCycles     int64   `json:"idle_cycles"`
	Utilization    float64 `json:"utilization"`
}

// SimKernelJSON is the wire form of hybridpart.SimKernel.
type SimKernelJSON struct {
	Block       int    `json:"block"`
	Name        string `json:"name"`
	Fabric      string `json:"fabric"`
	Invocations uint64 `json:"invocations"`
	BusyCycles  int64  `json:"busy_cycles"`
	FirstStart  int64  `json:"first_start"`
	LastEnd     int64  `json:"last_end"`
}

// SimValidationJSON is the wire form of hybridpart.SimValidation.
type SimValidationJSON struct {
	ModelInitialCycles int64    `json:"model_initial_cycles"`
	ModelFinalCycles   int64    `json:"model_final_cycles"`
	SimInitialCycles   int64    `json:"sim_initial_cycles"`
	SimFinalCycles     int64    `json:"sim_final_cycles"`
	ModelSpeedup       float64  `json:"model_speedup"`
	SimSpeedup         float64  `json:"sim_speedup"`
	SpeedupErrorPct    float64  `json:"speedup_error_pct"`
	Exact              bool     `json:"exact"`
	Notes              []string `json:"notes,omitempty"`
}

// SimReportJSON is the wire form of hybridpart.SimReport — the body of
// POST /v1/simulate and of hsim -json.
type SimReportJSON struct {
	Frames               int               `json:"frames"`
	Ports                int               `json:"ports"`
	Prefetch             bool              `json:"prefetch"`
	Regions              int               `json:"regions,omitempty"`
	Objective            string            `json:"objective"`
	Runs                 int               `json:"runs"`
	TotalCycles          int64             `json:"total_cycles"`
	BaselineCycles       int64             `json:"baseline_cycles"`
	Speedup              float64           `json:"speedup"`
	Fine                 FabricUtilJSON    `json:"fine"`
	Coarse               FabricUtilJSON    `json:"coarse"`
	Mem                  FabricUtilJSON    `json:"mem"`
	Reconfigs            int64             `json:"reconfigs"`
	ModelCrossings       int64             `json:"model_crossings"`
	HiddenReconfigCycles int64             `json:"hidden_reconfig_cycles"`
	Kernels              []SimKernelJSON   `json:"kernels,omitempty"`
	Validation           SimValidationJSON `json:"validation"`
}

// NewSimReportJSON converts a library SimReport to its wire form.
func NewSimReportJSON(r *hybridpart.SimReport) SimReportJSON {
	conv := func(u hybridpart.FabricUtil) FabricUtilJSON {
		return FabricUtilJSON{
			BusyCycles:     u.BusyCycles,
			ReconfigCycles: u.ReconfigCycles,
			IdleCycles:     u.IdleCycles,
			Utilization:    u.Utilization,
		}
	}
	out := SimReportJSON{
		Frames:               r.Frames,
		Ports:                r.Ports,
		Prefetch:             r.Prefetch,
		Objective:            r.Objective.String(),
		Runs:                 r.Runs,
		TotalCycles:          r.TotalCycles,
		BaselineCycles:       r.BaselineCycles,
		Speedup:              r.Speedup(),
		Fine:                 conv(r.Fine),
		Coarse:               conv(r.Coarse),
		Mem:                  conv(r.Mem),
		Reconfigs:            r.Reconfigs,
		ModelCrossings:       r.ModelCrossings,
		HiddenReconfigCycles: r.HiddenReconfigCycles,
		Validation: SimValidationJSON{
			ModelInitialCycles: r.Validation.ModelInitialCycles,
			ModelFinalCycles:   r.Validation.ModelFinalCycles,
			SimInitialCycles:   r.Validation.SimInitialCycles,
			SimFinalCycles:     r.Validation.SimFinalCycles,
			ModelSpeedup:       r.Validation.ModelSpeedup,
			SimSpeedup:         r.Validation.SimSpeedup,
			SpeedupErrorPct:    r.Validation.SpeedupErrorPct,
			Exact:              r.Validation.Exact,
			Notes:              r.Validation.Notes,
		},
	}
	if r.Regions > 1 {
		// The monolithic context stays off the wire so R=1 reports remain
		// byte-identical to the single-context schema.
		out.Regions = r.Regions
	}
	for _, k := range r.Kernels {
		out.Kernels = append(out.Kernels, SimKernelJSON{
			Block:       k.Block,
			Name:        k.Name,
			Fabric:      k.Fabric,
			Invocations: k.Invocations,
			BusyCycles:  k.BusyCycles,
			FirstStart:  k.FirstStart,
			LastEnd:     k.LastEnd,
		})
	}
	return out
}

// MarshalSimReport is MarshalResult for the co-simulator: the canonical
// cached-and-served encoding of a simulation report.
func MarshalSimReport(r *hybridpart.SimReport) ([]byte, error) {
	b, err := json.Marshal(NewSimReportJSON(r))
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// PresetJSON is one row of GET /v1/presets.
type PresetJSON struct {
	Name    string `json:"name"`
	Summary string `json:"summary"`
}

// ErrorJSON is the body of every non-2xx JSON response.
type ErrorJSON struct {
	Error string `json:"error"`
}
