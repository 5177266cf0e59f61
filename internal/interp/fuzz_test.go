package interp

import (
	"os"
	"path/filepath"
	"testing"

	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
)

// fuzzMaxSteps bounds each fuzzed run, so a program that loops forever
// traps instead of hanging the fuzzer.
const fuzzMaxSteps = 20000

// fuzzMaxElems bounds the array storage of a fuzzed program. Every
// declared array is allocated when the program runs, and the fuzzer keeps
// several programs in flight, so larger programs are skipped to keep the
// run's memory small.
const fuzzMaxElems = 1 << 16

// lowerSeedDir is the mini-C seed corpus internal/lower's FuzzLowerSource
// reads.
const lowerSeedDir = "../lower/testdata/seeds"

// FuzzInterpSource compiles arbitrary mini-C source and runs every
// parameter-less function of each accepted program, as lowered and
// flattened, on the decoded interpreter and on the reference under a small
// step limit. The two must agree on everything observable (return value,
// trap, steps, globals, counts, edges, instruction count); a run may trap,
// but must never panic or hang. The seeds are FuzzLowerSource's corpus
// (lowerSeedDir) plus programs that reach each runtime trap.
func FuzzInterpSource(f *testing.F) {
	seeds := []string{
		// Runtime traps: division, remainder, bounds, the step limit.
		`int G[2]; int f() { int z = G[0]; return 7 / z; }`,
		`int f() { int m = -2147483647 - 1; int d = -1; return m % d; }`,
		`int A[4]; int f() { int i; int s = 0; for (i = 0; i < 6; i++) { s += A[i]; } return s; }`,
		`int A[4]; void w(int B[], int i) { B[i] = i; } int f() { w(A, 3); w(A, -1); return A[3]; }`,
		`int f() { int x = 0; while (1) { x = x + 1; } return x; }`,
		// A multiply-accumulate loop whose index overruns B: the load of
		// B[N] traps as the first op of the fast path's fused load+mul.
		`const int N = 4;
int A[N + 1] = {1, 2, 3, 4, 5};
int B[N] = {5, 6, 7, 8};
int f() { int i; int s = 0; for (i = 0; i <= N; i++) { s += A[i] * B[i]; } return s; }`,
		// A compare's result read after the branch it feeds, beside the
		// compare-and-branch loop test the fast path folds.
		`int f() {
    int i; int c = 0; int s = 0;
    for (i = 0; i < 6; i++) { c = i < 3; if (c) { s += i; } }
    return s * 10 + c + (i >= 6);
}`,
		// Traps whose op writes one of its own operands: the message must
		// show the operand's value from before the refused op.
		`int A[4]; int f() { int i = 9; i = A[i]; return i; }`,
		`int f() { int d = 0; d = 5 / d; return d; }`,
	}
	addSeeds(f, lowerSeedDir)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lower.LowerSource(src)
		if err != nil || arrayElems(prog) > fuzzMaxElems {
			return
		}
		for _, fn := range prog.Funcs {
			if len(fn.Params) > 0 {
				continue
			}
			checkSame(t, diffCase{name: fn.Name, prog: prog, fn: fn.Name, maxSteps: fuzzMaxSteps})
			flat, err := lower.Flatten(prog, fn.Name)
			if err != nil {
				continue
			}
			fp := ir.NewProgram()
			fp.Globals = prog.Globals
			if err := fp.AddFunc(flat); err != nil {
				t.Fatal(err)
			}
			checkSame(t, diffCase{name: fn.Name + "/flat", prog: fp, fn: fn.Name, maxSteps: fuzzMaxSteps})
		}
	})
}

// arrayElems is the element count of every array prog declares.
func arrayElems(prog *ir.Program) int64 {
	var n int64
	for _, g := range prog.Globals {
		n += int64(g.Len)
	}
	for _, f := range prog.Funcs {
		for _, a := range f.Arrays {
			n += int64(a.Len)
		}
	}
	return n
}

// addSeeds adds every file of dir to f's seed corpus, in file-name order.
func addSeeds(f *testing.F, dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range ents {
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
}
