package lower

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLowerSource drives the whole mini-C frontend — lexer, parser, and the
// checking, folding and IR lowering pass — with arbitrary source text. The
// invariant under fuzzing: LowerSource never panics, and whenever it
// accepts an input, the produced program passes IR validation (CFG edge
// consistency, operand sanity) and flattens cleanly from any function
// without parameters. The seeds are the shared corpus in seedDir.
func FuzzLowerSource(f *testing.F) {
	addSeeds(f, seedDir)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := LowerSource(src)
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		if prog == nil {
			t.Fatal("nil program without error")
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("accepted program fails validation: %v\nsource:\n%s", err, src)
		}
		for _, fn := range prog.Funcs {
			if len(fn.Params) > 0 {
				continue
			}
			if _, err := Flatten(prog, fn.Name); err != nil {
				// Flattening legitimately rejects some valid programs
				// (e.g. recursion); it must do so via error, not panic.
				continue
			}
		}
	})
}

// seedDir is the mini-C seed corpus FuzzLowerSource and the interpreter's
// FuzzInterpSource share: well-formed programs spanning the supported
// constructs, malformed inputs the front end must reject without crashing,
// and the scope-*.c programs of TestScopingAndFolding.
const seedDir = "testdata/seeds"

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
