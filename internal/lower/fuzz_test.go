package lower

import (
	"strings"
	"testing"
)

// FuzzLowerSource drives the whole mini-C frontend — lexer, parser, and the
// checking, folding and IR lowering pass — with arbitrary source text. The
// invariant under fuzzing: LowerSource never panics, and whenever it
// accepts an input, the produced program passes IR validation (CFG edge
// consistency, operand sanity) and flattens cleanly from any function
// without parameters.
func FuzzLowerSource(f *testing.F) {
	seeds := []string{
		// Well-formed programs spanning the supported constructs.
		`int f() { return 1; }`,
		`const int N = 8;
int A[N];
int f(int n) {
    int i;
    int s = 0;
    for (i = 0; i < n; i++) { A[i] = i * 3; s += A[i]; }
    return s;
}`,
		`int g(int x) { return x > 0 ? x : -x; }
int f() { return g(-4) + g(4); }`,
		`int M[4][4];
void init() {
    int i; int j;
    for (i = 0; i < 4; i++) { for (j = 0; j < 4; j++) { M[i][j] = i ^ j; } }
}
int f() { init(); return M[3][2]; }`,
		`int f(int a, int b) {
    int r = 0;
    while (a > 0) { r += b; a--; }
    if (r > 100 && b < 50 || a == 0) { r = r % 7; }
    return r;
}`,
		// Malformed inputs: the frontend must reject, not crash.
		``,
		`not C at all`,
		`int f( { return; }`,
		`int f() { return zz; }`,
		`int f() { int x = 1 / ; }`,
		`int A[-1]; int f() { return A[0]; }`,
		`int f() { f(); return f(1); }`,
		"int f() { return 2147483647 + 1; }",
		strings.Repeat("(", 100),
		"int f() {" + strings.Repeat("{", 64) + strings.Repeat("}", 64) + "return 0; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, c := range scopingSources {
		f.Add(c.src)
	}
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
