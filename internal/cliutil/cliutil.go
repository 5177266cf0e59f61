// Package cliutil is the one front end of the hybridpart CLIs: the
// workload-selection, platform and objective flags, their validation, and
// the exit conventions, so hpart, hsim, hprof and cdfgdump share one
// implementation instead of drifting as per-command copies. Each command
// keeps its own defaults for the knobs whose defaults differ.
package cliutil

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hybridpart"
	"hybridpart/internal/obs"
)

// Tool is a command's name, the prefix of every line it writes to stderr.
type Tool string

// Usage exits with status 2 when err is non-nil: the invocation was bad.
func (t Tool) Usage(err error) {
	if err != nil {
		t.exit(2, err)
	}
}

// Usagef exits with status 2 and a formatted message.
func (t Tool) Usagef(format string, a ...any) { t.exit(2, fmt.Errorf(format, a...)) }

// Fatal exits with status 1 when err is non-nil: the run itself failed.
func (t Tool) Fatal(err error) {
	if err != nil {
		t.exit(1, err)
	}
}

func (t Tool) exit(code int, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", t, err)
	os.Exit(code)
}

// Selection is the workload-selection flag set: a built-in benchmark
// (-bench, -seed) or a mini-C source file (-src, -entry, -args).
type Selection struct {
	Bench, Src, Entry, Args string
	Seed                    uint
}

// AddSelection registers -bench, -src and -entry on fs, plus -args and
// -seed when the command profiles the workload it selects.
func AddSelection(fs *flag.FlagSet, profiled bool) *Selection {
	s := &Selection{}
	fs.StringVar(&s.Bench, "bench", "", fmt.Sprintf("built-in benchmark %v", hybridpart.Benchmarks()))
	fs.StringVar(&s.Src, "src", "", "mini-C source file (alternative to -bench)")
	fs.StringVar(&s.Entry, "entry", "main_fn", "entry function for -src")
	if profiled {
		fs.StringVar(&s.Args, "args", "", "comma-separated scalar arguments for the entry function")
		fs.UintVar(&s.Seed, "seed", 1, "benchmark input seed")
	}
	return s
}

// Check rejects a selection that names no workload, two, or an unknown
// benchmark.
func (s *Selection) Check() error {
	switch {
	case s.Bench == "" && s.Src == "":
		return errors.New("need -bench or -src")
	case s.Bench != "" && s.Src != "":
		return errors.New("-bench and -src are mutually exclusive")
	case s.Bench != "" && !hybridpart.IsBenchmark(s.Bench):
		return fmt.Errorf("unknown benchmark %q (have %v)", s.Bench, hybridpart.Benchmarks())
	}
	return nil
}

// Load builds the selected workload, profiled by one run: the benchmark on
// its seeded input, or the source file's entry function on the -args
// values.
func (s *Selection) Load() (*hybridpart.Workload, error) {
	if s.Bench != "" {
		return hybridpart.BenchmarkWorkload(s.Bench, uint32(s.Seed))
	}
	text, err := os.ReadFile(s.Src)
	if err != nil {
		return nil, err
	}
	w, err := hybridpart.NewWorkload(string(text), s.Entry)
	if err != nil {
		return nil, err
	}
	args, err := parseArgs(s.Args)
	if err != nil {
		return nil, err
	}
	if _, err := w.Run(args...); err != nil {
		return nil, err
	}
	return w, nil
}

// parseArgs parses a comma-separated -args list into scalar arguments for
// the entry function. The empty string is no arguments.
func parseArgs(argList string) ([]int32, error) {
	if argList == "" {
		return nil, nil
	}
	var args []int32
	for _, part := range strings.Split(argList, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad -args value %q: %v", part, err)
		}
		args = append(args, int32(v))
	}
	return args, nil
}

// Platform is the platform flag set. -preset lays down a registered
// variant; an explicitly given -afpga, -cgcs or -regions overrides that
// field of it. Without a preset the three flags' values always apply.
type Platform struct {
	fs                   *flag.FlagSet
	Preset               string
	AFPGA, CGCs, Regions int
}

// AddPlatform registers -preset, -afpga, -cgcs and -regions on fs.
func AddPlatform(fs *flag.FlagSet) *Platform {
	p := &Platform{fs: fs}
	fs.StringVar(&p.Preset, "preset", "", "platform preset to start from (see hsweep -list-presets)")
	fs.IntVar(&p.AFPGA, "afpga", 1500, "usable fine-grain area A_FPGA")
	fs.IntVar(&p.CGCs, "cgcs", 2, "number of 2x2 CGCs in the data-path")
	fs.IntVar(&p.Regions, "regions", 1, "independently reconfigurable fine-grain regions (1 = monolithic context)")
	return p
}

// Check rejects a non-positive area, CGC count or region count.
func (p *Platform) Check() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"afpga", p.AFPGA}, {"cgcs", p.CGCs}, {"regions", p.Regions}} {
		if f.v <= 0 {
			return fmt.Errorf("-%s must be positive, got %d", f.name, f.v)
		}
	}
	return nil
}

// Options returns the engine options that configure the platform.
func (p *Platform) Options() []hybridpart.Option {
	set := map[string]bool{}
	p.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var opts []hybridpart.Option
	if p.Preset != "" {
		opts = append(opts, hybridpart.WithPlatform(p.Preset))
	}
	if p.Preset == "" || set["afpga"] {
		opts = append(opts, hybridpart.WithArea(p.AFPGA))
	}
	if p.Preset == "" || set["cgcs"] {
		opts = append(opts, hybridpart.WithCGCs(p.CGCs))
	}
	if p.Preset == "" || set["regions"] {
		opts = append(opts, hybridpart.WithRegions(p.Regions))
	}
	return opts
}

// Objective is the move-loop objective flag pair: -objective and -rerank.
type Objective struct {
	Name   string
	Rerank int
}

// AddObjective registers -objective, with the command's usage text, and
// -rerank on fs.
func AddObjective(fs *flag.FlagSet, usage string) *Objective {
	o := &Objective{}
	fs.StringVar(&o.Name, "objective", "model", usage)
	fs.IntVar(&o.Rerank, "rerank", 0, "re-score the top-k model trajectories by simulation (0 = off, -1 = all)")
	return o
}

// Options checks the pair and returns it as engine options. The simulated
// objective excludes re-ranking, which already ends with a simulated
// selection.
func (o *Objective) Options() ([]hybridpart.Option, error) {
	if o.Rerank < -1 {
		return nil, fmt.Errorf("-rerank must be -1 (all), 0 (off) or positive, got %d", o.Rerank)
	}
	obj, err := hybridpart.ParseObjective(o.Name)
	if err != nil {
		return nil, err
	}
	if obj == hybridpart.ObjectiveSimulated && o.Rerank != 0 {
		return nil, errors.New("-objective sim and -rerank are mutually exclusive (rerank already ends with a simulated selection)")
	}
	return []hybridpart.Option{hybridpart.WithObjective(obj), hybridpart.WithRerank(o.Rerank)}, nil
}

// WriteJSON writes v to stdout as indented JSON: the service wire format,
// readable in a terminal.
func WriteJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// RunTrace owns one CLI run's span trace: a single-trace ring, its root
// span, and the -trace-out path the Chrome trace-event file goes to.
type RunTrace struct {
	tracer *obs.Tracer
	root   *obs.Span
	path   string
}

// TraceRun arms span tracing for one CLI run — the shared -trace-out
// implementation behind hpart, hsim and hsweep, so all three record runs
// exactly like a service request (same span names, same export format).
// With an empty path tracing stays off and the returned *RunTrace is nil;
// Close is nil-safe, so callers need no conditionals.
func TraceRun(ctx context.Context, path, service, root string, attrs ...obs.Attr) (context.Context, *RunTrace) {
	if path == "" {
		return ctx, nil
	}
	tracer := obs.New(obs.Config{Service: service, RingSize: 1})
	ctx, span := tracer.StartRoot(ctx, root, obs.SpanContext{}, attrs...)
	return ctx, &RunTrace{tracer: tracer, root: span, path: path}
}

// Close ends the run's root span and writes the trace file. It must run
// after the traced call returns, error or not — a failed run's partial
// trace is exactly what the flag exists to capture.
func (rt *RunTrace) Close() error {
	if rt == nil {
		return nil
	}
	rt.root.End()
	return os.WriteFile(rt.path, obs.ChromeTrace(rt.tracer.Traces()), 0o644)
}
