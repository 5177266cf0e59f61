package lower

import (
	"fmt"
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

// scopingSources are the programs of TestScopingAndFolding; FuzzLowerSource
// seeds from them too.
var scopingSources = []struct{ name, src, want string }{
	// A const resolves in the scope that declares it: a function's const
	// neither sizes a later global array nor initializes a global const.
	{"local const stays local",
		"const int N = 4;\nint f() { const int N = 8; return N; }\nint A[N];\nconst int M = N;\nint g() { return M; }",
		"A[4][] f()=8 g()=4"},
	{"another function's const",
		"int f() { const int Q = 3; return Q; }\nint B[Q];\nint g() { return 0; }",
		`error 2:1: undefined: "Q"`},
	{"local scalar shadows global const",
		"const int N = 4;\nint f() { int N = 1; const int K = N + 1; return K; }",
		"error 2:1: const K initializer is not a constant expression"},
	{"local scalar shadows global const in an array initializer",
		"const int N = 4;\nint f() { int N = 2; int v[2] = {N, 1}; return v[0]; }",
		"f()=2"},
	// The fold refuses exactly where the interpreter traps.
	{"const division overflow",
		"const int X = (-2147483647-1) / -1;\nint f() { return X; }",
		"error 1:1: const X initializer is not a constant expression"},
	{"run-time division overflow",
		"int f() { return (-2147483647-1) / -1; }",
		"f()=interp: trap in f (line 1): division overflow"},
	{"const remainder overflow",
		"const int X = (-2147483647-1) % -1;\nint f() { return X; }",
		"error 1:1: const X initializer is not a constant expression"},
	{"const division by zero",
		"const int X = 7 / (3 - 3);\nint f() { return X; }",
		"error 1:1: const X initializer is not a constant expression"},
	{"global initializer overflow",
		"int G[1] = {(-2147483647-1) / -1};\nint f() { return G[0]; }",
		`error 1:1: global array "G" initializer must be constant`},
	{"global initializer &&",
		"int G[1] = {1 && 2};\nint f() { return G[0]; }",
		"G[1][1] f()=1"},
	{"local initializer &&",
		"int f() { int G[1] = {1 && 2}; return G[0]; }",
		"f()=1"},
	// A skipped operand does not run, so it cannot trap.
	{"&& skips a trap", "const int X = 0 && 1/0;\nint f() { return X; }", "f()=0"},
	{"|| skips a trap", "int G[2] = {1 || 1/0, 0 || 5};\nint f() { return G[0]; }", "G[2][1 1] f()=1"},
	{"|| runs a trap", "int G[1] = {0 || 1/0};\nint f() { return G[0]; }", `error 1:1: global array "G" initializer must be constant`},
	{"?: skips a trap", "const int X = 1 ? 2 : 1/0;\nint f() { return X; }", "f()=2"},
	{"?: checks the skipped arm's names", "const int X = 1 ? 2 : zz;\nint f() { return X; }", `error 1:1: undefined: "zz"`},
	// Bodies see every global; global declarations only those above them.
	{"body sees a later const", "int f() { int a[N]; return N; }\nconst int N = 4;", "f()=4"},
	{"global sees no later const", "int A[N];\nconst int N = 4;\nvoid f() {}", `error 1:1: undefined: "N"`},
	{"local const sizes a local array", "int f() { const int K = 2; int a[K][K]; a[1][1] = K; return a[1][1]; }", "f()=2"},
	{"array as a dimension", "int a[4];\nint b[a];\nvoid f() {}", `error 2:1: array "a" used as a scalar value`},
}

// TestScopingAndFolding pins name resolution and constant folding across
// scopes: the value each accepted program computes, or the error and line
// of each refused one.
func TestScopingAndFolding(t *testing.T) {
	for _, c := range scopingSources {
		if got := summary(c.src); got != c.want {
			t.Errorf("%s:\n%s\ngot  %s\nwant %s", c.name, c.src, got, c.want)
		}
	}
}
