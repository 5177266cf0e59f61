package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hybridpart"
)

// parse registers the hpart/hsim front end on a fresh flag set, parses args
// and runs the checks in the commands' order. On success it returns the
// platform the resulting engine is configured with.
func parse(t *testing.T, args ...string) (hybridpart.Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sel := AddSelection(fs, true)
	plat := AddPlatform(fs)
	objective := AddObjective(fs, "objective")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	if err := sel.Check(); err != nil {
		return hybridpart.Options{}, err
	}
	if err := plat.Check(); err != nil {
		return hybridpart.Options{}, err
	}
	objOpts, err := objective.Options()
	if err != nil {
		return hybridpart.Options{}, err
	}
	eng, err := hybridpart.NewEngine(append(plat.Options(), objOpts...)...)
	if err != nil {
		t.Fatalf("engine for %q: %v", args, err)
	}
	return eng.Options(), nil
}

func presetOptions(t *testing.T, preset string) hybridpart.Options {
	t.Helper()
	eng, err := hybridpart.NewEngine(hybridpart.WithPlatform(preset))
	if err != nil {
		t.Fatal(err)
	}
	return eng.Options()
}

func TestFrontEnd(t *testing.T) {
	paper := presetOptions(t, "")
	dsp := presetOptions(t, "dsp-rich")
	large := presetOptions(t, "paper-large")
	for _, tc := range []struct {
		name string
		args []string
		err  string
		// On success: the engine's area, CGC count, regions and cost table.
		afpga, cgcs, regions int
		costs                hybridpart.OpCosts
	}{
		{name: "no workload", err: "need -bench or -src"},
		{name: "both workloads", args: []string{"-bench", "ofdm", "-src", "app.c"},
			err: "-bench and -src are mutually exclusive"},
		{name: "unknown benchmark", args: []string{"-bench", "mp3"},
			err: fmt.Sprintf(`unknown benchmark "mp3" (have %v)`, hybridpart.Benchmarks())},
		{name: "zero area", args: []string{"-bench", "ofdm", "-afpga", "0"},
			err: "-afpga must be positive, got 0"},
		{name: "zero regions", args: []string{"-bench", "ofdm", "-regions", "0"},
			err: "-regions must be positive, got 0"},
		{name: "rerank below -1", args: []string{"-bench", "ofdm", "-rerank", "-2"},
			err: "-rerank must be -1 (all), 0 (off) or positive, got -2"},
		{name: "sim objective with rerank", args: []string{"-bench", "ofdm", "-objective", "sim", "-rerank", "3"},
			err: "-objective sim and -rerank are mutually exclusive (rerank already ends with a simulated selection)"},
		{name: "flag defaults", args: []string{"-bench", "ofdm"},
			afpga: 1500, cgcs: 2, regions: 1, costs: paper.Costs},
		{name: "preset alone", args: []string{"-bench", "ofdm", "-preset", "paper-large"},
			afpga: 5000, cgcs: 2, regions: large.Regions, costs: large.Costs},
		{name: "explicit flag overrides preset", args: []string{"-bench", "jpeg", "-preset", "dsp-rich", "-afpga", "900"},
			afpga: 900, cgcs: 2, regions: dsp.Regions, costs: dsp.Costs},
		{name: "explicit default overrides preset", args: []string{"-src", "app.c", "-preset", "paper-large", "-afpga", "1500", "-regions", "2"},
			afpga: 1500, cgcs: 2, regions: 2, costs: large.Costs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts, err := parse(t, tc.args...)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("error %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if opts.AFPGA != tc.afpga || opts.NumCGCs != tc.cgcs || opts.Regions != tc.regions {
				t.Errorf("platform A_FPGA %d, CGCs %d, regions %d; want %d, %d, %d",
					opts.AFPGA, opts.NumCGCs, opts.Regions, tc.afpga, tc.cgcs, tc.regions)
			}
			if !reflect.DeepEqual(opts.Costs, tc.costs) {
				t.Errorf("cost table %+v, want %+v", opts.Costs, tc.costs)
			}
		})
	}
}

func TestLoadSource(t *testing.T) {
	src := filepath.Join(t.TempDir(), "app.c")
	text := "int main_fn(int n) { int s = 0; int i; for (i = 0; i < n; i++) { s = s + i; } return s; }\n"
	if err := os.WriteFile(src, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	sel := &Selection{Src: src, Entry: "main_fn", Args: " 10"}
	w, err := sel.Load()
	if err != nil {
		t.Fatal(err)
	}
	if w.Entry() != "main_fn" || w.InstructionsExecuted() == 0 {
		t.Fatalf("workload %s ran %d instructions, want a profiled main_fn", w.Entry(), w.InstructionsExecuted())
	}
	sel.Args = "10,x"
	if _, err := sel.Load(); err == nil || !strings.HasPrefix(err.Error(), `bad -args value "x"`) {
		t.Fatalf("bad -args: error %v", err)
	}
}
