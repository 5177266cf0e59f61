package lower

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridpart/internal/interp"
)

// summary renders what an accepted program declares and computes: each
// global array with its length and initializer, then the value or trap of
// each parameterless int function.
func summary(src string) string {
	prog, err := LowerSource(src)
	if err != nil {
		return "error " + err.Error()
	}
	var parts []string
	for _, g := range prog.Globals {
		parts = append(parts, fmt.Sprintf("%s[%d]%v", g.Name, g.Len, g.Init))
	}
	for _, fn := range prog.Funcs {
		if len(fn.Params) > 0 || !fn.HasRet {
			continue
		}
		v, err := interp.New(prog).Run(fn.Name)
		if err != nil {
			parts = append(parts, fmt.Sprintf("%s()=%v", fn.Name, err))
		} else {
			parts = append(parts, fmt.Sprintf("%s()=%d", fn.Name, v))
		}
	}
	return strings.Join(parts, " ")
}

// scopingCases pair each scope-*.c program of the shared mini-C seed
// corpus (seedDir) with what it declares and computes, or the error and
// line it is refused with.
var scopingCases = []struct{ name, want string }{
	// A const resolves in the scope that declares it: a function's const
	// neither sizes a later global array nor initializes a global const.
	{"local-const-stays-local", "A[4][] f()=8 g()=4"},
	{"another-functions-const", `error 2:1: undefined: "Q"`},
	{"local-scalar-shadows-global-const", "error 2:1: const K initializer is not a constant expression"},
	{"local-scalar-shadows-global-const-in-an-array-initializer", "f()=2"},
	// The fold refuses exactly where the interpreter traps.
	{"const-division-overflow", "error 1:1: const X initializer is not a constant expression"},
	{"run-time-division-overflow", "f()=interp: trap in f (line 1): division overflow"},
	{"const-remainder-overflow", "error 1:1: const X initializer is not a constant expression"},
	{"const-division-by-zero", "error 1:1: const X initializer is not a constant expression"},
	{"global-initializer-overflow", `error 1:1: global array "G" initializer must be constant`},
	{"global-initializer-and", "G[1][1] f()=1"},
	{"local-initializer-and", "f()=1"},
	// A skipped operand does not run, so it cannot trap.
	{"and-skips-a-trap", "f()=0"},
	{"or-skips-a-trap", "G[2][1 1] f()=1"},
	{"or-runs-a-trap", `error 1:1: global array "G" initializer must be constant`},
	{"ternary-skips-a-trap", "f()=2"},
	{"ternary-checks-the-skipped-arms-names", `error 1:1: undefined: "zz"`},
	// Bodies see every global; global declarations only those above them.
	{"body-sees-a-later-const", "f()=4"},
	{"global-sees-no-later-const", `error 1:1: undefined: "N"`},
	{"local-const-sizes-a-local-array", "f()=2"},
	{"array-as-a-dimension", `error 2:1: array "a" used as a scalar value`},
}

// TestScopingAndFolding pins name resolution and constant folding across
// scopes: the value each accepted program computes, or the error and line
// of each refused one.
func TestScopingAndFolding(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(seedDir, "scope-*.c"))
	if err != nil || len(files) != len(scopingCases) {
		t.Fatalf("%d scope-*.c programs in %s for %d cases (err %v)", len(files), seedDir, len(scopingCases), err)
	}
	for _, c := range scopingCases {
		src, err := os.ReadFile(filepath.Join(seedDir, "scope-"+c.name+".c"))
		if err != nil {
			t.Fatal(err)
		}
		if got := summary(string(src)); got != c.want {
			t.Errorf("%s:\n%s\ngot  %s\nwant %s", c.name, src, got, c.want)
		}
	}
}
