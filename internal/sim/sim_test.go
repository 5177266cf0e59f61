package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"hybridpart/internal/apps"
	"hybridpart/internal/finegrain"
	"hybridpart/internal/interp"
	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
	"hybridpart/internal/platform"
)

// threeStageSrc alternates three distinct basic blocks inside a loop: an
// ALU-heavy stage, a multiply stage (the data-path candidate) and a second
// ALU stage. With a small A_FPGA the stages pack into different temporal
// partitions, which is the regime where configuration scheduling matters.
const threeStageSrc = `
void main_fn() {
  int i; int x; int y; int z;
  i = 0; x = 1; y = 2; z = 3;
  while (i < 16) {
    if (x < 100000) {
      x = x + i + y + x + i + y + x + i + y + x + i + y + x + i;
    }
    if (y < 100000) {
      y = y * x + x * i + y * y + x * y;
    }
    if (z < 100000) {
      z = z + x + i + z + y + i + z + x + i + z + y + i + z + x;
    }
    i = i + 1;
  }
}
`

// divSrc holds a division, which the CGC data-path cannot execute.
const divSrc = `
void main_fn() {
  int i; int x;
  i = 1; x = 100;
  while (i < 8) {
    x = x / i + x;
    i = i + 1;
  }
}
`

// firSrc is a 16-tap FIR filter: a nested loop over a global input array.
const firSrc = `
const int N = 128;
int TAPS[16] = {1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1};
int INPUT[N];
int OUTPUT[N];
void prep() {
    int i;
    for (i = 0; i < N; i++) { INPUT[i] = (i * 13 + 5) & 127; }
}
int main_fn() {
    int n;
    int k;
    prep();
    for (n = 16; n < N; n++) {
        int acc = 0;
        for (k = 0; k < 16; k++) { acc += TAPS[k] * INPUT[n - k]; }
        OUTPUT[n] = acc >> 6;
    }
    return OUTPUT[N - 1];
}
`

// prep lowers src, flattens entry and profiles runsCount args-free runs.
// simulate replays in's trace once, against the mapping that moves the
// given blocks, on a fresh Replayer.
func simulate(ctx context.Context, in Input, cfg Config, moved ...ir.BlockID) (*Report, error) {
	r, err := NewReplayer(in)
	if err != nil {
		return nil, err
	}
	return r.Simulate(ctx, cfg, moved)
}

func prep(t *testing.T, src, entry string, runsCount int) (*ir.Program, *ir.Function, []uint64, []finegrain.EdgeFreq) {
	t.Helper()
	return prepInput(t, src, entry, runsCount, "", nil)
}

// prepInput is prep with the global array input set to vals before the
// first run.
func prepInput(t testing.TB, src, entry string, runsCount int, input string, vals []int32) (*ir.Program, *ir.Function, []uint64, []finegrain.EdgeFreq) {
	t.Helper()
	prog, err := lower.LowerSource(src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	flat, err := lower.Flatten(prog, entry)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	fp := ir.NewProgram()
	fp.Globals = prog.Globals
	if err := fp.AddFunc(flat); err != nil {
		t.Fatal(err)
	}
	m := interp.New(fp)
	if input != "" {
		copy(m.Global(input), vals)
	}
	prof := m.EnableProfile()
	for i := 0; i < runsCount; i++ {
		if _, err := m.Run(entry); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	var edges []finegrain.EdgeFreq
	for k, n := range prof.Edges[entry] {
		edges = append(edges, finegrain.EdgeFreq{From: k.From(), To: k.To(), N: n})
	}
	freq := make([]uint64, len(flat.Blocks))
	copy(freq, prof.Counts[entry])
	return fp, flat, freq, edges
}

// smallPlat is the paper platform with A_FPGA shrunk so the three-stage
// program spans several temporal partitions.
func smallPlat(afpga int) platform.Platform {
	p := platform.Default()
	p.Fine.Area = afpga
	return p
}

// referenceTrace is the flat Hierholzer walk that BuildTrace compresses,
// kept verbatim as the test oracle: one stack entry and one trace entry per
// block visit.
func referenceTrace(f *ir.Function, freq []uint64, edges []finegrain.EdgeFreq) (trace []ir.BlockID, runs int, err error) {
	n := len(f.Blocks)
	var total uint64
	for id, c := range freq {
		if id >= n && c > 0 {
			return nil, 0, fmt.Errorf("sim: profile counts block %d of a %d-block function", id, n)
		}
		total += c
	}
	if total == 0 {
		return nil, 0, nil
	}
	if len(freq) < n {
		grown := make([]uint64, n)
		copy(grown, freq)
		freq = grown
	}

	succ := make([][]rem, n)
	in := make([]uint64, n)
	out := make([]uint64, n)
	var edgeTotal uint64
	for _, e := range edges {
		if e.N == 0 {
			continue
		}
		if int(e.From) >= n || int(e.To) >= n {
			return nil, 0, fmt.Errorf("sim: profiled edge %d->%d outside the function", e.From, e.To)
		}
		succ[e.From] = append(succ[e.From], rem{to: e.To, n: e.N})
		out[e.From] += e.N
		in[e.To] += e.N
		edgeTotal += e.N
	}

	entry := f.Entry
	if freq[entry] < in[entry] {
		return nil, 0, fmt.Errorf("sim: block %d enters more often than it executes", entry)
	}
	runs = int(freq[entry] - in[entry])
	if runs == 0 {
		return nil, 0, fmt.Errorf("sim: profile has no run starting at the entry block")
	}
	last := -1
	for id := n - 1; id >= 0; id-- {
		if freq[id] > out[id] {
			last = id
			break
		}
	}
	for id := 0; id < n; id++ {
		if out[id] > freq[id] {
			return nil, 0, fmt.Errorf("sim: block %d exits more often than it executes", id)
		}
		ends := freq[id] - out[id]
		if id == last {
			ends--
		}
		if ends > 0 {
			succ[id] = append(succ[id], rem{to: entry, n: ends})
			edgeTotal += ends
		}
	}
	for id := range succ {
		sort.Slice(succ[id], func(i, j int) bool { return succ[id][i].to < succ[id][j].to })
	}

	next := make([]int, n)
	stack := make([]ir.BlockID, 0, 64)
	stack = append(stack, entry)
	trace = make([]ir.BlockID, 0, total)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		sv := succ[v]
		for next[v] < len(sv) && sv[next[v]].n == 0 {
			next[v]++
		}
		if next[v] < len(sv) {
			sv[next[v]].n--
			stack = append(stack, sv[next[v]].to)
		} else {
			trace = append(trace, v)
			stack = stack[:len(stack)-1]
		}
	}
	for i, j := 0, len(trace)-1; i < j; i, j = i+1, j-1 {
		trace[i], trace[j] = trace[j], trace[i]
	}

	if uint64(len(trace)) != total || uint64(len(trace)) != edgeTotal+1 {
		return nil, 0, fmt.Errorf("sim: profile is not replayable: %d of %d block executions reconstructed", len(trace), total)
	}
	seen := make([]uint64, n)
	for _, b := range trace {
		seen[b]++
	}
	for id := range seen {
		if seen[id] != freq[id] {
			return nil, 0, fmt.Errorf("sim: profile is not replayable: block %d reconstructed %d times, profiled %d", id, seen[id], freq[id])
		}
	}
	return trace, runs, nil
}

// expand plays a token trace out block by block.
func expand(trace []Token) []ir.BlockID {
	var flat []ir.BlockID
	for _, t := range trace {
		for k := uint64(0); k < t.Reps; k++ {
			flat = append(flat, t.Body...)
		}
	}
	return flat
}

// uncompressed builds a Replayer for in whose trace is the reference flat
// trace as one token played once: every walk and replay then visits the
// trace block by block, which is what the compressed paths must equal.
func uncompressed(t testing.TB, in Input) *Replayer {
	t.Helper()
	r, err := NewReplayer(in)
	if err != nil {
		t.Fatal(err)
	}
	flat, _, err := referenceTrace(in.F, in.Freq, in.Edges)
	if err != nil {
		t.Fatal(err)
	}
	r.trace = []Token{{Body: flat, Reps: 1}}
	r.bodyLen, r.traceLen = len(flat), len(flat)
	return r
}

// traceFixture is one profiled application for the trace equivalence
// suite.
type traceFixture struct {
	name  string
	prog  *ir.Program
	f     *ir.Function
	freq  []uint64
	edges []finegrain.EdgeFreq
	area  int // per-region A_FPGA that spreads it over several partitions
}

// traceFixtures profiles the three-stage, division and FIR fixtures (one
// run and several), OFDM seed 1 and, unless -short, JPEG seed 1.
func traceFixtures(t *testing.T) []traceFixture {
	t.Helper()
	var fx []traceFixture
	add := func(name, src, entry string, runs, area int, input string, vals []int32) {
		prog, f, freq, edges := prepInput(t, src, entry, runs, input, vals)
		fx = append(fx, traceFixture{name, prog, f, freq, edges, area})
	}
	add("three-stage", threeStageSrc, "main_fn", 1, 320, "", nil)
	add("three-stage-x3", threeStageSrc, "main_fn", 3, 320, "", nil)
	add("div", divSrc, "main_fn", 1, 260, "", nil)
	add("fir", firSrc, "main_fn", 1, 300, "", nil)
	add("fir-x2", firSrc, "main_fn", 2, 300, "", nil)
	add("ofdm", apps.OFDMSource(), apps.OFDMEntry, 1, 600, apps.OFDMBitsArray, apps.GenBits(apps.OFDMTotalBits, 1))
	if !testing.Short() {
		src, err := apps.JPEGSource()
		if err != nil {
			t.Fatal(err)
		}
		add("jpeg", src, apps.JPEGEntry, 1, 2000, apps.JPEGImageArray, apps.GenImage(1))
	}
	return fx
}

// TestFineFloorMatchesUnboundedPack pins the Replayer's per-block
// execution floor, computed straight from the level tables, to the packing
// it stands for: every block packed into one region no operator can
// overflow, at the paper's costs and at a cost table whose multiplier is
// slower, on every fixture (OFDM, JPEG and FIR among them).
func TestFineFloorMatchesUnboundedPack(t *testing.T) {
	for _, fx := range traceFixtures(t) {
		for _, mulLatency := range []int{0, 7} {
			plat := smallPlat(fx.area)
			plat.Coarse.ClockRatio = 3
			if mulLatency > 0 {
				plat.Fine.Costs.LatMul = mulLatency
			}
			r, err := NewReplayer(Input{Prog: fx.prog, F: fx.f, Plat: plat, Freq: fx.freq, Edges: fx.edges})
			if err != nil {
				t.Fatal(err)
			}
			var floor finegrain.PackedMapping
			unbounded := platform.FineGrain{Area: math.MaxInt, Costs: plat.Fine.Costs}
			if err := floor.Pack(r.tables, unbounded, nil); err != nil {
				t.Fatal(err)
			}
			for id := range fx.f.Blocks {
				if want := floor.PerBlockCycles[id] * int64(plat.Coarse.ClockRatio); r.minFineT[id] != want {
					t.Errorf("%s mul latency %d: block %d floor %d ticks, unbounded packing %d",
						fx.name, mulLatency, id, r.minFineT[id], want)
				}
			}
		}
	}
}

// TestBuildTraceMatchesReference: the token trace expands to the flat
// reference walk element for element, on every fixture.
func TestBuildTraceMatchesReference(t *testing.T) {
	for _, fx := range traceFixtures(t) {
		trace, runs, err := BuildTrace(fx.f, fx.freq, fx.edges)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		want, wantRuns, err := referenceTrace(fx.f, fx.freq, fx.edges)
		if err != nil {
			t.Fatalf("%s: reference: %v", fx.name, err)
		}
		if runs != wantRuns {
			t.Fatalf("%s: runs = %d, reference %d", fx.name, runs, wantRuns)
		}
		if got := expand(trace); !slices.Equal(got, want) {
			t.Fatalf("%s: token expansion (%d visits) differs from the reference trace (%d visits)", fx.name, len(got), len(want))
		}
		stored := 0
		for _, tok := range trace {
			stored += len(tok.Body)
		}
		t.Logf("%s: %d visits in %d tokens, %d stored IDs", fx.name, len(want), len(trace), stored)
	}
}

func TestBuildTraceReplaysProfile(t *testing.T) {
	_, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	tokens, runs, err := BuildTrace(flat, freq, edges)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
	trace := expand(tokens)
	// Visit counts match the profile exactly.
	seen := make([]uint64, len(flat.Blocks))
	for _, b := range trace {
		seen[b]++
	}
	if !reflect.DeepEqual(seen, freq) {
		t.Fatalf("trace visit counts %v != profiled %v", seen, freq)
	}
	// The multiset of consecutive transitions is exactly the profiled edges.
	got := map[[2]ir.BlockID]uint64{}
	for i := 0; i+1 < len(trace); i++ {
		got[[2]ir.BlockID{trace[i], trace[i+1]}]++
	}
	want := map[[2]ir.BlockID]uint64{}
	for _, e := range edges {
		want[[2]ir.BlockID{e.From, e.To}] += e.N
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace transitions diverge from profiled edges:\ngot  %v\nwant %v", got, want)
	}
	if trace[0] != flat.Entry {
		t.Fatalf("trace starts at block %d, want entry %d", trace[0], flat.Entry)
	}
}

func TestBuildTraceDeterministic(t *testing.T) {
	_, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	a, _, err := BuildTrace(flat, freq, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffle the edge order: the reconstruction must not depend on it.
	shuffled := make([]finegrain.EdgeFreq, len(edges))
	copy(shuffled, edges)
	sort.Slice(shuffled, func(i, j int) bool {
		if shuffled[i].To != shuffled[j].To {
			return shuffled[i].To > shuffled[j].To
		}
		return shuffled[i].From > shuffled[j].From
	})
	b, _, err := BuildTrace(flat, freq, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("trace reconstruction depends on edge input order")
	}
}

func TestBuildTraceMultiRun(t *testing.T) {
	_, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 3)
	trace, runs, err := BuildTrace(flat, freq, edges)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Fatalf("runs = %d, want 3", runs)
	}
	seen := make([]uint64, len(flat.Blocks))
	for _, tok := range trace {
		for _, b := range tok.Body {
			seen[b] += tok.Reps
		}
	}
	if !reflect.DeepEqual(seen, freq) {
		t.Fatalf("multi-run trace visit counts %v != profiled %v", seen, freq)
	}
}

func TestBuildTraceInconsistentProfile(t *testing.T) {
	_, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	bad := make([]uint64, len(freq))
	copy(bad, freq)
	bad[len(bad)-1] += 5 // executions no edge explains
	if _, _, err := BuildTrace(flat, bad, edges); err == nil {
		t.Fatal("inconsistent profile reconstructed without error")
	}
	// Counts whose sums overflow are rejected before any walk.
	huge := make([]uint64, len(freq))
	copy(huge, freq)
	huge[0] = 1 << 63
	huge[1] = 1 << 63
	if _, _, err := BuildTrace(flat, huge, edges); err == nil {
		t.Fatal("overflowing block counts reconstructed without error")
	}
	wide := append([]finegrain.EdgeFreq(nil), edges...)
	wide = append(wide, finegrain.EdgeFreq{From: wide[0].From, To: wide[0].To, N: 1<<64 - 1})
	if _, _, err := BuildTrace(flat, freq, wide); err == nil {
		t.Fatal("overflowing edge counts reconstructed without error")
	}
}

// TestBaselineMatchesPackedModel pins the all-FPGA simulation to the
// analytical fine-grain model: with every block on the FPGA, one frame and
// no contention, the simulated makespan is exactly the packed model, eq. 4
// level cycles plus one reconfiguration per crossing (CrossedCycles).
func TestBaselineMatchesPackedModel(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	for _, afpga := range []int{256, 320, 448, 1500} {
		plat := smallPlat(afpga)
		pm, err := finegrain.PackFunction(flat, plat.Fine, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := pm.CrossedCycles(freq, pm.Crossings(freq, edges), plat.Fine.ReconfigCycles)
		rep, err := simulate(context.Background(), Input{Prog: fp, F: flat, Plat: plat, Freq: freq, Edges: edges}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalCycles != want {
			t.Errorf("A=%d: simulated %d cycles, model %d", afpga, rep.TotalCycles, want)
		}
		if rep.Reconfigs != rep.ModelCrossings {
			t.Errorf("A=%d: %d reconfigs vs %d model crossings", afpga, rep.Reconfigs, rep.ModelCrossings)
		}
		if rep.CoarseBusy != 0 || rep.MemBusy != 0 {
			t.Errorf("A=%d: all-FPGA run used the data-path (%d) or transfers (%d)", afpga, rep.CoarseBusy, rep.MemBusy)
		}
	}
}

// TestPrefetchHidesReconfiguration exercises the configuration-prefetch
// path: with the multiply stage on the data-path and a partition boundary
// across the window, the naive sequencer stalls on loads the model never
// charges, and prefetch hides part of them — never running slower.
func TestPrefetchHidesReconfiguration(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges}
	off, err := simulate(context.Background(), in, Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	on, err := simulate(context.Background(), in, Config{Prefetch: true}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if off.Reconfigs <= off.ModelCrossings {
		t.Fatalf("fixture lost its cross-window loads: %d reconfigs vs %d model crossings",
			off.Reconfigs, off.ModelCrossings)
	}
	if on.TotalCycles >= off.TotalCycles {
		t.Fatalf("prefetch did not help: %d >= %d", on.TotalCycles, off.TotalCycles)
	}
	if on.HiddenReconfigCycles <= 0 {
		t.Fatalf("prefetch hid nothing (total %d vs %d)", on.TotalCycles, off.TotalCycles)
	}
}

// TestPrefetchNeverSlower sweeps areas and moved sets: prefetch must never
// extend the makespan.
func TestPrefetchNeverSlower(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	for afpga := 96; afpga <= 512; afpga += 32 {
		for moved := 0; moved < len(flat.Blocks); moved++ {
			in := Input{Prog: fp, F: flat, Plat: smallPlat(afpga), Freq: freq, Edges: edges}
			off, err := simulate(context.Background(), in, Config{}, ir.BlockID(moved))
			if err != nil {
				continue // unmappable moved block etc.
			}
			for _, frames := range []int{1, 5} {
				off, err = simulate(context.Background(), in, Config{Frames: frames}, ir.BlockID(moved))
				if err != nil {
					t.Fatal(err)
				}
				on, err := simulate(context.Background(), in, Config{Frames: frames, Prefetch: true}, ir.BlockID(moved))
				if err != nil {
					t.Fatal(err)
				}
				if on.TotalCycles > off.TotalCycles {
					t.Errorf("A=%d moved=%d frames=%d: prefetch slower: %d > %d",
						afpga, moved, frames, on.TotalCycles, off.TotalCycles)
				}
			}
		}
	}
}

func TestFramesPipeline(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges}
	single, err := simulate(context.Background(), in, Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var frameEnds []int64
	rep, err := simulate(context.Background(), in, Config{
		Frames:  4,
		OnFrame: func(frame int, cycles int64) { frameEnds = append(frameEnds, cycles) },
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCycles < single.TotalCycles || rep.TotalCycles > 4*single.TotalCycles {
		t.Fatalf("4-frame makespan %d outside [%d, %d]", rep.TotalCycles, single.TotalCycles, 4*single.TotalCycles)
	}
	if len(frameEnds) != 4 {
		t.Fatalf("OnFrame fired %d times, want 4", len(frameEnds))
	}
	for i := 1; i < len(frameEnds); i++ {
		if frameEnds[i] < frameEnds[i-1] {
			t.Fatalf("frame completions regress: %v", frameEnds)
		}
	}
	if frameEnds[3] != rep.TotalCycles {
		t.Fatalf("last frame ends at %d, makespan %d", frameEnds[3], rep.TotalCycles)
	}
}

func TestPortsSpeedTransfers(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges}
	one, err := simulate(context.Background(), in, Config{Ports: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	four, err := simulate(context.Background(), in, Config{Ports: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if four.MemBusy >= one.MemBusy {
		t.Fatalf("4 ports did not shorten transfers: %d >= %d", four.MemBusy, one.MemBusy)
	}
	if four.TotalCycles > one.TotalCycles {
		t.Fatalf("4 ports slower overall: %d > %d", four.TotalCycles, one.TotalCycles)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges}
	cfg := Config{Frames: 3, Ports: 2, Prefetch: true}
	a, err := simulate(context.Background(), in, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simulate(context.Background(), in, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated simulation diverged")
	}
}

func TestSimulateCancellation(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := simulate(ctx, Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges},
		Config{Frames: 2})
	if err != context.Canceled {
		t.Fatalf("cancelled simulation returned %v", err)
	}
}

func TestSimulateErrors(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges}
	if _, err := simulate(context.Background(), in, Config{Frames: -1}); err == nil {
		t.Error("negative frames accepted")
	}
	if _, err := simulate(context.Background(), in, Config{Ports: -1}); err == nil {
		t.Error("negative ports accepted")
	}
	if _, err := simulate(context.Background(), in, Config{}, ir.BlockID(len(flat.Blocks))); err == nil {
		t.Error("out-of-range moved block accepted")
	}

	// A kernel the data-path cannot execute must be rejected, like the
	// partitioning engine rejects it.
	dp, dflat, dfreq, dedges := prep(t, divSrc, "main_fn", 1)
	for id := range dflat.Blocks {
		din := Input{Prog: dp, F: dflat, Plat: platform.Default(), Freq: dfreq, Edges: dedges}
		if _, err := simulate(context.Background(), din, Config{}, ir.BlockID(id)); err != nil {
			return // found the division block: rejected as expected
		}
	}
	t.Error("no block of the division program was rejected")
}

// TestKernelTimeline sanity-checks the per-kernel rows: every executed
// block appears once, fabrics are labeled correctly, and invocation counts
// scale with the frame count.
func TestKernelTimeline(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges}
	rep, err := simulate(context.Background(), in, Config{Frames: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var executed int
	for _, n := range freq {
		if n > 0 {
			executed++
		}
	}
	if len(rep.Kernels) != executed {
		t.Fatalf("%d timeline rows, want %d", len(rep.Kernels), executed)
	}
	for _, k := range rep.Kernels {
		if k.Invocations != 2*freq[k.Block] {
			t.Errorf("block %d: %d invocations, want %d", k.Block, k.Invocations, 2*freq[k.Block])
		}
		wantFabric := "fine"
		if k.Block == 5 {
			wantFabric = "coarse"
		}
		if k.Fabric != wantFabric {
			t.Errorf("block %d on %q, want %q", k.Block, k.Fabric, wantFabric)
		}
		if k.FirstStart < 0 || k.LastEnd > rep.TotalCycles || k.FirstStart > k.LastEnd {
			t.Errorf("block %d timeline [%d, %d] outside [0, %d]", k.Block, k.FirstStart, k.LastEnd, rep.TotalCycles)
		}
	}
}

// TestReplayerMatchesSimulate: one Replayer serving many mappings (the
// move-loop objective's access pattern) reports, mapping for mapping, what
// a fresh Replayer reports, without rebuilding the trace or the schedules.
func TestReplayerMatchesSimulate(t *testing.T) {
	prog, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: prog, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges}
	r, err := NewReplayer(in)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Frames: 4, Ports: 2, Prefetch: true}
	// Every mappable singleton plus the empty mapping, all through the one
	// Replayer.
	movedSets := [][]ir.BlockID{nil}
	for id := range flat.Blocks {
		if _, err := r.CoarseLatency(ir.BlockID(id)); err == nil {
			movedSets = append(movedSets, []ir.BlockID{ir.BlockID(id)})
		}
	}
	if len(movedSets) < 3 {
		t.Fatalf("fixture yields only %d mappable sets", len(movedSets))
	}
	for _, moved := range movedSets {
		oneShot, err := simulate(context.Background(), in, cfg, moved...)
		if err != nil {
			t.Fatalf("moved=%v: %v", moved, err)
		}
		reused, err := r.Simulate(context.Background(), cfg, moved)
		if err != nil {
			t.Fatalf("moved=%v: %v", moved, err)
		}
		if !reflect.DeepEqual(oneShot, reused) {
			t.Fatalf("moved=%v: reused replayer diverges from a fresh one:\n%+v\nvs\n%+v", moved, reused, oneShot)
		}
	}
	// The token trace covers the whole profile: visit counts must match it
	// and TraceLen must count the expanded visits.
	seen := make([]uint64, len(flat.Blocks))
	var visits uint64
	for _, tok := range r.trace {
		for _, b := range tok.Body {
			seen[b] += tok.Reps
			visits += tok.Reps
		}
	}
	for id, n := range seen {
		if n != freq[id] {
			t.Fatalf("token trace visits block %d %d times, profiled %d", id, n, freq[id])
		}
	}
	if uint64(r.TraceLen()) != visits {
		t.Fatalf("TraceLen %d, tokens expand to %d visits", r.TraceLen(), visits)
	}
}

// TestMakespanMatchesSimulate pins the report-free scoring entry point to
// the full Simulate: for every mappable moved set (empty, singletons and
// pairs) of three programs, every frame count, both port widths and both
// prefetch settings, Makespan must return exactly Report.TotalCycles — it
// is the same replay with the bookkeeping elided and the steady-state
// fast-forwards taken, not an approximation. A single Arena is reused across
// all calls to exercise the grow/reset path.
func TestMakespanMatchesSimulate(t *testing.T) {
	for _, src := range []struct {
		name, src, entry string
		area             int
	}{
		{"three-stage", threeStageSrc, "main_fn", 320},
		{"div", divSrc, "main_fn", 260},
		{"fir", firSrc, "main_fn", 300},
	} {
		t.Run(src.name, func(t *testing.T) {
			prog, flat, freq, edges := prep(t, src.src, src.entry, 1)
			in := Input{Prog: prog, F: flat, Plat: smallPlat(src.area), Freq: freq, Edges: edges}
			r, err := NewReplayer(in)
			if err != nil {
				t.Fatal(err)
			}
			var mappable []ir.BlockID
			for id := range flat.Blocks {
				if _, err := r.CoarseLatency(ir.BlockID(id)); err == nil {
					mappable = append(mappable, ir.BlockID(id))
				}
			}
			movedSets := [][]ir.BlockID{nil}
			for i, a := range mappable {
				movedSets = append(movedSets, []ir.BlockID{a})
				for _, b := range mappable[i+1:] {
					movedSets = append(movedSets, []ir.BlockID{a, b})
				}
			}
			var arena Arena
			for _, frames := range []int{1, 2, 8} {
				for _, ports := range []int{1, 2} {
					for _, prefetch := range []bool{false, true} {
						cfg := Config{Frames: frames, Ports: ports, Prefetch: prefetch}
						for _, moved := range movedSets {
							rep, err := r.Simulate(context.Background(), cfg, moved)
							if err != nil {
								t.Fatalf("moved=%v: %v", moved, err)
							}
							got, err := r.Makespan(context.Background(), cfg, moved, &arena)
							if err != nil {
								t.Fatalf("moved=%v: %v", moved, err)
							}
							if got != rep.TotalCycles {
								t.Fatalf("frames=%d ports=%d prefetch=%v moved=%v: Makespan %d != Simulate %d",
									frames, ports, prefetch, moved, got, rep.TotalCycles)
							}
							// nil arena allocates a fresh one and must agree too.
							fresh, err := r.Makespan(context.Background(), cfg, moved, nil)
							if err != nil {
								t.Fatal(err)
							}
							if fresh != got {
								t.Fatalf("moved=%v: fresh-arena makespan %d != reused-arena %d", moved, fresh, got)
							}
						}
					}
				}
			}
		})
	}
}

// TestSeqStateAdvance pins the one shift-invariance rule both steady-state
// fast-forwards use: the same residency and pending prefetch, and every
// resource in use ahead by one common delta; a resource not in use is left
// out, and shift moves exactly the resources in use.
func TestSeqStateAdvance(t *testing.T) {
	snap := seqState{fineFree: 10, coarseFree: 20, memFree: 15, prefetchPart: 2, loadedR: []int{1, 2}}
	both := useFine | useCoarse
	for _, tc := range []struct {
		name   string
		mutate func(*seqState)
		use    uint8
		want   bool
	}{
		{"all ahead by d", func(s *seqState) {}, both, true},
		{"coarse lags, fine only", func(s *seqState) { s.coarseFree -= 3 }, useFine, true},
		{"coarse lags", func(s *seqState) { s.coarseFree -= 3 }, both, false},
		{"mem lags", func(s *seqState) { s.memFree-- }, both, false},
		{"mem lags, fine only", func(s *seqState) { s.memFree-- }, useFine, true},
		{"fine lags, coarse only", func(s *seqState) { s.fineFree-- }, useCoarse, true},
		{"fine lags", func(s *seqState) { s.fineFree-- }, both, false},
		{"residency differs", func(s *seqState) { s.loadedR[1] = 3 }, both, false},
		{"prefetch differs", func(s *seqState) { s.prefetchPart = -1 }, both, false},
	} {
		cur := snap
		cur.loadedR = slices.Clone(snap.loadedR)
		cur.shift(7, both)
		tc.mutate(&cur)
		d, ok := cur.advance(&snap, tc.use)
		if ok != tc.want || ok && d != 7 {
			t.Errorf("%s: advance = %d, %v; want 7, %v", tc.name, d, ok, tc.want)
		}
	}
	var saved seqState
	cur := snap
	cur.saveTo(&saved)
	cur.loadedR[0] = 9
	if saved.loadedR[0] != 1 {
		t.Fatal("saveTo shares the residency buffer")
	}
	cur = saved
	cur.shift(5, useCoarse)
	if cur.fineFree != 10 || cur.coarseFree != 25 || cur.memFree != 20 {
		t.Fatalf("shift(5, coarse) = %+v", cur)
	}
}

// TestLowerBoundAdmissible is the branch-and-bound soundness property: for
// every moved set (empty, singletons, and all mappable pairs) under every
// region/frame/port/prefetch combination, neither LowerBound nor the
// tighter FineWalkBound ever exceeds the replayed makespan. One
// overestimate would let the scorer prune a true argmin. The regions axis
// also pins the monolithic identity: Regions=1 replays byte-identically to
// the legacy single-context model (Regions unset).
func TestLowerBoundAdmissible(t *testing.T) {
	for _, src := range []struct {
		name, src, entry string
		area             int
	}{
		{"three-stage", threeStageSrc, "main_fn", 320},
		{"div", divSrc, "main_fn", 260},
	} {
		t.Run(src.name, func(t *testing.T) {
			prog, flat, freq, edges := prep(t, src.src, src.entry, 1)
			legacy, err := NewReplayer(Input{Prog: prog, F: flat, Plat: smallPlat(src.area), Freq: freq, Edges: edges})
			if err != nil {
				t.Fatal(err)
			}
			for _, regions := range []int{1, 2, 4} {
				// Scale total area with the region count so the per-region
				// area — what packing sees — stays fixed across the sweep
				// and R only changes the residency dynamics.
				plat := smallPlat(src.area * regions)
				plat.Fine.Regions = regions
				in := Input{Prog: prog, F: flat, Plat: plat, Freq: freq, Edges: edges}
				r, err := NewReplayer(in)
				if err != nil {
					t.Fatal(err)
				}
				var mappable []ir.BlockID
				for id := range flat.Blocks {
					if _, err := r.CoarseLatency(ir.BlockID(id)); err == nil {
						mappable = append(mappable, ir.BlockID(id))
					}
				}
				movedSets := [][]ir.BlockID{nil}
				for i, a := range mappable {
					movedSets = append(movedSets, []ir.BlockID{a})
					for _, b := range mappable[i+1:] {
						movedSets = append(movedSets, []ir.BlockID{a, b})
					}
				}
				var arena Arena
				for _, frames := range []int{1, 4} {
					for _, ports := range []int{1, 2} {
						for _, prefetch := range []bool{false, true} {
							cfg := Config{Frames: frames, Ports: ports, Prefetch: prefetch}
							for _, moved := range movedSets {
								bound, err := r.LowerBound(cfg, moved)
								if err != nil {
									t.Fatalf("moved=%v: %v", moved, err)
								}
								full, err := r.Makespan(context.Background(), cfg, moved, &arena)
								if err != nil {
									t.Fatalf("moved=%v: %v", moved, err)
								}
								if bound > full {
									t.Fatalf("regions=%d frames=%d ports=%d prefetch=%v moved=%v: bound %d exceeds makespan %d",
										regions, frames, ports, prefetch, moved, bound, full)
								}
								walk, err := r.FineWalkBound(cfg, moved, &arena)
								if err != nil {
									t.Fatalf("moved=%v: %v", moved, err)
								}
								if walk > full {
									t.Fatalf("regions=%d frames=%d ports=%d prefetch=%v moved=%v: fine-walk bound %d exceeds makespan %d",
										regions, frames, ports, prefetch, moved, walk, full)
								}
								if regions == 1 {
									want, err := legacy.Makespan(context.Background(), cfg, moved, nil)
									if err != nil {
										t.Fatal(err)
									}
									if full != want {
										t.Fatalf("frames=%d ports=%d prefetch=%v moved=%v: Regions=1 makespan %d != legacy %d",
											frames, ports, prefetch, moved, full, want)
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestReplayerConcurrentUse is the race-detector pin for the documented
// concurrency contract: one Replayer, 16 goroutines, each hammering the
// full read API — Simulate, Makespan (with its own Arena), LowerBound,
// FineWalkBound (with its own Arena), CoarseLatency and TransferTicks —
// while asserting every result equals the serially computed golden value.
// Run under -race in CI.
func TestReplayerConcurrentUse(t *testing.T) {
	prog, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: prog, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges}
	r, err := NewReplayer(in)
	if err != nil {
		t.Fatal(err)
	}
	var moved []ir.BlockID
	for id := range flat.Blocks {
		if _, err := r.CoarseLatency(ir.BlockID(id)); err == nil {
			moved = append(moved, ir.BlockID(id))
			if len(moved) == 2 {
				break
			}
		}
	}
	cfg := Config{Frames: 4, Ports: 2, Prefetch: true}
	goldenRep, err := r.Simulate(context.Background(), cfg, moved)
	if err != nil {
		t.Fatal(err)
	}
	goldenBound, err := r.LowerBound(cfg, moved)
	if err != nil {
		t.Fatal(err)
	}
	goldenLat, err := r.CoarseLatency(moved[0])
	if err != nil {
		t.Fatal(err)
	}
	goldenTx := r.TransferTicks(moved[0], cfg.Ports)
	goldenWalk, err := r.FineWalkBound(cfg, moved, nil)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var arena Arena // per-goroutine, per the contract
			for i := 0; i < 20; i++ {
				rep, err := r.Simulate(context.Background(), cfg, moved)
				if err != nil {
					errs <- err
					return
				}
				if rep.TotalCycles != goldenRep.TotalCycles {
					errs <- fmt.Errorf("concurrent Simulate: %d != %d", rep.TotalCycles, goldenRep.TotalCycles)
					return
				}
				mk, err := r.Makespan(context.Background(), cfg, moved, &arena)
				if err != nil {
					errs <- err
					return
				}
				if mk != goldenRep.TotalCycles {
					errs <- fmt.Errorf("concurrent Makespan: %d != %d", mk, goldenRep.TotalCycles)
					return
				}
				b, err := r.LowerBound(cfg, moved)
				if err != nil {
					errs <- err
					return
				}
				if b != goldenBound {
					errs <- fmt.Errorf("concurrent LowerBound: %d != %d", b, goldenBound)
					return
				}
				lat, err := r.CoarseLatency(moved[0])
				if err != nil {
					errs <- err
					return
				}
				if lat != goldenLat {
					errs <- fmt.Errorf("concurrent CoarseLatency: %d != %d", lat, goldenLat)
					return
				}
				if tx := r.TransferTicks(moved[0], cfg.Ports); tx != goldenTx {
					errs <- fmt.Errorf("concurrent TransferTicks: %d != %d", tx, goldenTx)
					return
				}
				wb, err := r.FineWalkBound(cfg, moved, &arena)
				if err != nil {
					errs <- err
					return
				}
				if wb != goldenWalk {
					errs <- fmt.Errorf("concurrent FineWalkBound: %d != %d", wb, goldenWalk)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCompressedMatchesUncompressed pins every token walk to the flat one.
// On every fixture, for random moved sets × regions {1, 2, 4} × prefetch ×
// frames {1, 8}, the compressed Replayer's FineWalkBound, Makespan and
// Simulate report equal those of a Replayer that plays the reference flat
// trace block by block.
func TestCompressedMatchesUncompressed(t *testing.T) {
	for _, fx := range traceFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			masks, reports := 12, true
			if fx.name == "jpeg" {
				masks, reports = 3, false // a JPEG report plays 1.2M visits per frame
			}
			for _, regions := range []int{1, 2, 4} {
				plat := smallPlat(fx.area * regions)
				plat.Fine.Regions = regions
				in := Input{Prog: fx.prog, F: fx.f, Plat: plat, Freq: fx.freq, Edges: fx.edges}
				r, err := NewReplayer(in)
				if err != nil {
					t.Fatal(err)
				}
				u := uncompressed(t, in)
				var mappable []ir.BlockID
				for id := range fx.f.Blocks {
					if _, err := r.CoarseLatency(ir.BlockID(id)); err == nil && fx.freq[id] > 0 {
						mappable = append(mappable, ir.BlockID(id))
					}
				}
				var ra, ua Arena
				for m := 0; m < masks; m++ {
					var moved []ir.BlockID
					for _, b := range mappable {
						if m > 0 && rng.Intn(3) == 0 {
							moved = append(moved, b)
						}
					}
					for _, frames := range []int{1, 8} {
						for _, prefetch := range []bool{false, true} {
							cfg := Config{Frames: frames, Ports: 1 + rng.Intn(2), Prefetch: prefetch}
							what := fmt.Sprintf("R=%d frames=%d prefetch=%v moved=%v", regions, frames, prefetch, moved)
							got, err := r.FineWalkBound(cfg, moved, &ra)
							if err != nil {
								t.Fatal(err)
							}
							want, err := u.FineWalkBound(cfg, moved, &ua)
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Fatalf("%s: FineWalkBound %d, flat %d", what, got, want)
							}
							if got, err = r.Makespan(context.Background(), cfg, moved, &ra); err != nil {
								t.Fatal(err)
							}
							if want, err = u.Makespan(context.Background(), cfg, moved, &ua); err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Fatalf("%s: Makespan %d, flat %d", what, got, want)
							}
							if !reports {
								continue
							}
							gotRep, err := r.Simulate(context.Background(), cfg, moved)
							if err != nil {
								t.Fatal(err)
							}
							wantRep, err := u.Simulate(context.Background(), cfg, moved)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(gotRep, wantRep) {
								t.Fatalf("%s: report diverges from the flat replay:\n%+v\nvs\n%+v", what, gotRep, wantRep)
							}
							if gotRep.TotalCycles != got {
								t.Fatalf("%s: report makespan %d, Makespan %d", what, gotRep.TotalCycles, got)
							}
						}
					}
				}
			}
		})
	}
}

// FuzzBuildTrace profiles random walks over random small CFGs and checks
// BuildTrace against the flat reference walk: a consistent profile expands
// to the reference trace, and a corrupted count gets the reference's
// verdict — an error from both, or equal traces — with no panic and no
// hang. A count corrupted past any walk's reach must be rejected outright.
func FuzzBuildTrace(f *testing.F) {
	f.Add([]byte{3, 1, 1, 2, 2, 0, 0, 1, 1, 1, 0, 0, 2, 1}, uint8(0), uint8(0), int8(0))
	f.Add([]byte{5, 2, 1, 2, 1, 3, 2, 4, 0, 1, 0, 9, 9, 9, 7, 1, 2}, uint8(2), uint8(1), int8(1))
	f.Add([]byte{2, 1, 1, 1, 0, 0, 0, 0}, uint8(1), uint8(2), int8(-1))
	f.Add([]byte{6, 2, 1, 5, 2, 2, 0, 1, 3, 2, 4, 1, 1, 5, 0, 3}, uint8(1), uint8(3), int8(0))
	f.Fuzz(func(t *testing.T, data []byte, runs, corrupt uint8, delta int8) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		fn := ir.NewFunction("f")
		n := 2 + next()%7
		for len(fn.Blocks) < n {
			fn.AddBlock("")
		}
		succ := make([][]ir.BlockID, n)
		for b := range succ {
			for k := next() % 3; k > 0; k-- {
				succ[b] = append(succ[b], ir.BlockID(next()%n))
			}
		}
		// Walk 1..3 runs from the entry block; a run ends at a block with no
		// successor, on a stop byte or after 300 steps.
		freq := make([]uint64, n)
		counts := map[[2]ir.BlockID]uint64{}
		for r := 0; r <= int(runs%3); r++ {
			b := fn.Entry
			freq[b]++
			for step := 0; step < 300 && len(succ[b]) > 0; step++ {
				c := next()
				if c%8 == 7 {
					break
				}
				to := succ[b][c%len(succ[b])]
				counts[[2]ir.BlockID{b, to}]++
				freq[to]++
				b = to
			}
		}
		edges := make([]finegrain.EdgeFreq, 0, len(counts))
		for k, c := range counts {
			edges = append(edges, finegrain.EdgeFreq{From: k[0], To: k[1], N: c})
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].From != edges[j].From {
				return edges[i].From < edges[j].From
			}
			return edges[i].To < edges[j].To
		})

		bump := func(c *uint64) {
			v := int64(*c) + int64(delta)
			*c = uint64(max(v, 0))
		}
		huge := false
		switch corrupt % 5 {
		case 1:
			bump(&freq[next()%n])
		case 2:
			if len(edges) > 0 {
				bump(&edges[next()%len(edges)].N)
			}
		case 3:
			freq[next()%n] += 1 << 62
			huge = true
		case 4:
			if len(edges) > 0 {
				edges[next()%len(edges)].N += 1 << 62
				huge = true
			}
		}

		got, gotRuns, err := BuildTrace(fn, freq, edges)
		if huge {
			if err == nil {
				t.Fatalf("count corrupted by 2^62 reconstructed %d tokens", len(got))
			}
			return
		}
		want, wantRuns, wantErr := referenceTrace(fn, freq, edges)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("BuildTrace error %v, reference error %v (freq %v edges %v)", err, wantErr, freq, edges)
		}
		if corrupt%5 == 0 && err != nil {
			t.Fatalf("profile of a real walk rejected: %v (freq %v edges %v)", err, freq, edges)
		}
		if err != nil {
			return
		}
		if gotRuns != wantRuns || !slices.Equal(expand(got), want) {
			t.Fatalf("expansion %v (runs %d) != reference %v (runs %d) (freq %v edges %v)",
				expand(got), gotRuns, want, wantRuns, freq, edges)
		}
	})
}
