package hybridpart

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"hybridpart/internal/finegrain"
	"hybridpart/internal/interp"
)

// Workload is the unit of work: one compiled application together with
// the execution profile it accumulates (the dynamic-analysis half of the
// paper's step 3) —
//
//	w, _ := hybridpart.NewWorkload(src, "main_fn")
//	w.SetInput("IN", vals)
//	w.Run()                      // dynamic analysis; counts accumulate
//	res, _ := engine.Partition(ctx, w)
//
// Run and SetInput mutate the workload's interpreter state and must not be
// called concurrently with each other or with Engine methods. Engine
// methods read one snapshot of the accumulated profile, taken by the first
// of them after a Run and shared by the rest until the next Run, and may
// run concurrently with one another.
type Workload struct {
	app  *App
	m    *interp.Machine
	prof *interp.Profile
	// snap is the profile snapshot Engine methods share, together with the
	// scoring context it builds (see RunProfile); every Run drops it.
	snap atomic.Pointer[RunProfile]
}

// newWorkload wraps a compiled app in a fresh profiling interpreter
// (globals at their initial values).
func newWorkload(app *App) *Workload {
	m := interp.New(app.fprog)
	return &Workload{app: app, m: m, prof: m.EnableProfile()}
}

// NewWorkload compiles mini-C source text (the paper's step 1) and prepares
// a fresh profiling interpreter over it. Globals start at their initial
// values.
func NewWorkload(src, entry string) (*Workload, error) {
	app, err := Compile(src, entry)
	if err != nil {
		return nil, err
	}
	return newWorkload(app), nil
}

// BenchmarkWorkload compiles the named built-in benchmark (see Benchmarks),
// loads its standard input vectors for the given seed, and executes it once
// with profiling — the ready-to-partition equivalent of the paper's
// evaluation setup.
func BenchmarkWorkload(name string, seed uint32) (*Workload, error) {
	d, ok := lookupBenchmark(name)
	if !ok {
		return nil, errUnknownBenchmark(name)
	}
	app, err := d.compile()
	if err != nil {
		return nil, err
	}
	w := newWorkload(app)
	if err := w.SetInput(d.inputArray, d.input(seed)); err != nil {
		return nil, err
	}
	if _, err := w.Run(); err != nil {
		return nil, err
	}
	return w, nil
}

// App returns the underlying compiled application (CDFG inspection, DOT
// emitters, and the *Profiled engine methods).
func (w *Workload) App() *App { return w.app }

// Entry returns the entry function name.
func (w *Workload) Entry() string { return w.app.Entry() }

// SourceHash returns the canonical content hash of the workload's source
// text (see SourceHash). Together with the entry name, the profiling inputs
// and an Options.Fingerprint it forms the cache key under which the
// partitioning service content-addresses this workload's results.
func (w *Workload) SourceHash() string { return w.app.SourceHash() }

// NumBlocks returns the number of basic blocks in the flattened CDFG.
func (w *Workload) NumBlocks() int { return w.app.NumBlocks() }

// SetInput copies vals into the named global array — the application's
// input surface.
func (w *Workload) SetInput(name string, vals []int32) error {
	g := w.m.Global(name)
	if g == nil {
		return fmt.Errorf("hybridpart: global %q not found", name)
	}
	if len(vals) > len(g) {
		return fmt.Errorf("hybridpart: %d values exceed %q (len %d)", len(vals), name, len(g))
	}
	copy(g, vals)
	return nil
}

// Data returns the live storage of a global array (nil if absent), for
// reading outputs back after Run.
func (w *Workload) Data(name string) []int32 { return w.m.Global(name) }

// Run executes the entry function with the given scalar arguments and
// returns its result. Profiling counts accumulate across calls: each Run is
// one more profiled execution (one more "frame") folded into the workload's
// dynamic analysis.
func (w *Workload) Run(args ...int32) (int32, error) {
	return w.RunContext(context.Background(), args...)
}

// RunContext is Run abandoned with ctx's error once ctx is done; the
// interpreter polls ctx every 2^16 executed instructions, so a runaway
// program stops shortly after its caller gives up.
func (w *Workload) RunContext(ctx context.Context, args ...int32) (int32, error) {
	// Even a failed run may have counted blocks, so every run ends the
	// current snapshot.
	defer w.snap.Store(nil)
	iargs := make([]interp.Arg, len(args))
	for i, v := range args {
		iargs[i] = interp.Int(v)
	}
	return w.m.RunContext(ctx, w.app.entry, iargs...)
}

// InstructionsExecuted returns the dynamic instruction count so far.
func (w *Workload) InstructionsExecuted() uint64 { return w.prof.Instrs }

// Profile snapshots the accumulated dynamic analysis: per-block execution
// counts plus control-flow transition counts, sorted by edge. Each call
// returns an independent copy; it is exported so one snapshot can be shared
// across many knob sets through the *Profiled engine methods. Engine
// methods on the Workload use their own shared snapshot instead.
func (w *Workload) Profile() *RunProfile {
	p := &RunProfile{Freq: make([]uint64, w.app.NumBlocks()), app: w.app}
	copy(p.Freq, w.prof.Counts[w.app.entry])
	for k, n := range w.prof.Edges[w.app.entry] {
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

// profiled returns the app and the shared profile snapshot, taking it on
// the first call after a Run, and errors on nil workloads so Engine methods
// fail loudly instead of panicking.
func (w *Workload) profiled() (*App, *RunProfile, error) {
	if w == nil || w.app == nil {
		return nil, nil, fmt.Errorf("hybridpart: nil workload")
	}
	p := w.snap.Load()
	if p == nil {
		// Concurrent first calls may each take one; all keep the winner.
		if p = w.Profile(); !w.snap.CompareAndSwap(nil, p) {
			p = w.snap.Load()
		}
	}
	return w.app, p, nil
}
