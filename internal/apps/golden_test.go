package apps

import (
	"os"
	"path/filepath"
	"testing"

	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
)

// TestIRGolden pins the IR the front end produces for both benchmarks, as
// lowered (every function) and as flattened into the entry's single CDFG.
// The dumps feed every partitioning number, so a front-end change that moves
// one byte of them must be deliberate: regenerate the files only then.
func TestIRGolden(t *testing.T) {
	jpeg, err := JPEGSource()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, src, entry string }{
		{"ofdm", OFDMSource(), OFDMEntry},
		{"jpeg", jpeg, JPEGEntry},
	} {
		prog, err := lower.LowerSource(c.src)
		if err != nil {
			t.Fatalf("%s: lower: %v", c.name, err)
		}
		flat, err := lower.Flatten(prog, c.entry)
		if err != nil {
			t.Fatalf("%s: flatten: %v", c.name, err)
		}
		fprog := ir.NewProgram()
		fprog.Globals = prog.Globals
		if err := fprog.AddFunc(flat); err != nil {
			t.Fatal(err)
		}
		for kind, got := range map[string]string{"lowered": prog.String(), "flat": fprog.String()} {
			path := filepath.Join("testdata", c.name+"_"+kind+".ir")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s %s IR differs from %s", c.name, kind, path)
			}
		}
	}
}
