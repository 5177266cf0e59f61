package energy

import (
	"slices"
	"testing"

	"hybridpart/internal/analysis"
	"hybridpart/internal/finegrain"
	"hybridpart/internal/interp"
	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
	"hybridpart/internal/platform"
)

const hotSrc = `
int data[2048];
int f(int n) {
    int i;
    int s = 0;
    for (i = 0; i < 2048; i++) { data[i] = i * 3 + 1; }
    for (i = 0; i < n; i++) {
        int j;
        for (j = 0; j < 2048; j++) {
            s += data[j] * j + (data[j] >> 2) * (j + 1) + (data[j] & j) * (j - 3);
        }
    }
    return s;
}`

type testApp struct {
	tables *ir.BlockTables
	rep    *analysis.Report
	freq   []uint64
	edges  []finegrain.EdgeFreq
}

func prepare(t *testing.T, src, entry string, args ...interp.Arg) testApp {
	t.Helper()
	prog, err := lower.LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := lower.Flatten(prog, entry)
	if err != nil {
		t.Fatal(err)
	}
	fp := ir.NewProgram()
	fp.Globals = prog.Globals
	if err := fp.AddFunc(flat); err != nil {
		t.Fatal(err)
	}
	m := interp.New(fp)
	prof := m.EnableProfile()
	if _, err := m.Run(entry, args...); err != nil {
		t.Fatal(err)
	}
	rep := analysis.Analyze(flat, prof.Counts[entry], analysis.DefaultWeights())
	freq := make([]uint64, len(flat.Blocks))
	copy(freq, prof.Counts[entry])
	var edges []finegrain.EdgeFreq
	for k, n := range prof.Edges[entry] {
		edges = append(edges, finegrain.EdgeFreq{From: k.From(), To: k.To(), N: n})
	}
	return testApp{tables: ir.BuildBlockTables(flat), rep: rep, freq: freq, edges: edges}
}

// evaluate prices the mapping that moves the given blocks to the
// coarse-grain data-path, packing the rest on the fine-grain fabric.
func evaluate(t *testing.T, a testApp, plat platform.Platform, moved ...ir.BlockID) Breakdown {
	t.Helper()
	var pm finegrain.PackedMapping
	if err := pm.Pack(a.tables, plat.Fine, func(id ir.BlockID) bool { return !slices.Contains(moved, id) }); err != nil {
		t.Fatal(err)
	}
	return Evaluate(a.tables, a.freq, &pm, DefaultCosts(), a.edges)
}

func TestEvaluateAllFineVsAllMoved(t *testing.T) {
	a := prepare(t, hotSrc, "f", interp.Int(4))
	plat := platform.Paper(1500, 2)

	base := evaluate(t, a, plat)
	if base.Coarse != 0 || base.Comm != 0 {
		t.Fatalf("all-FPGA breakdown has coarse/comm energy: %+v", base)
	}
	if base.Fine <= 0 {
		t.Fatal("no fine-grain energy")
	}

	// Move the hottest kernel: fine energy must drop, coarse+comm appear.
	after := evaluate(t, a, plat, a.rep.Kernels[0])
	if after.Fine >= base.Fine {
		t.Fatalf("fine energy did not drop: %f >= %f", after.Fine, base.Fine)
	}
	if after.Coarse <= 0 || after.Comm <= 0 {
		t.Fatalf("moved kernel shows no coarse/comm energy: %+v", after)
	}
	// With a 5x per-op gap the move must reduce total energy for this
	// multiply-heavy kernel.
	if after.Total() >= base.Total() {
		t.Fatalf("move increased energy: %f >= %f", after.Total(), base.Total())
	}
}
