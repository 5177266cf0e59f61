package minic_test

// The language's semantic rules, driven through the whole front end: minic
// parses, and lower.Lower resolves names, checks and folds.

import (
	"fmt"
	"strings"
	"testing"

	"hybridpart/internal/lower"
	"hybridpart/internal/minic"
)

const validProgram = `
const int N = 8;
int coeff[N] = {1, 2, 3, 4, 5, 6, 7, 8};
int scratch[N][N];

int weight(int v) {
    if (v < 0) { return -v; }
    return v;
}

void fill(int m[][8], int seed) {
    int i;
    int j;
    for (i = 0; i < N; i++) {
        for (j = 0; j < N; j += 1) {
            m[i][j] = seed + i * N + j;
        }
    }
}

int main_entry(int x) {
    int acc = 0;
    int k = 0;
    fill(scratch, x);
    while (k < N) {
        acc += coeff[k] * weight(scratch[k][k] - 4);
        k++;
    }
    do { acc -= 1; } while (acc > 1000);
    return (acc > 0) ? acc : -acc;
}
`

func TestParseAndCheckValidProgram(t *testing.T) {
	f, err := minic.Parse(validProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lower.Lower(f); err != nil {
		t.Fatal(err)
	}
	var funcs, vars int
	for _, d := range f.Decls {
		switch d.(type) {
		case *minic.FuncDecl:
			funcs++
		case *minic.VarDecl:
			vars++
		}
	}
	if funcs != 3 || vars != 3 {
		t.Fatalf("got %d funcs, %d vars; want 3 and 3", funcs, vars)
	}
}

func TestConstFolding(t *testing.T) {
	src := `
const int A = 4;
const int B = A * 2 + 1;
const int C = (B > 8) ? B << 1 : 0;
int buf[C];
void f() { buf[0] = 1; }
`
	prog, err := lower.LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Globals) != 1 || prog.Globals[0].Name != "buf" {
		t.Fatalf("globals %+v, want buf alone", prog.Globals)
	}
	if n := prog.Globals[0].Len; n != 18 {
		t.Fatalf("buf dim = %d, want 18", n)
	}
}

// TestCheckErrors pins each semantic error with its message and line.
func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined var", "int f() { return zz; }", `1:1: undefined: "zz"`},
		{"undefined func", "int f() { return g(); }", `1:1: call to undefined function "g"`},
		{"void as value", "void g() {} int f() { return g(); }", `1:1: void function "g" used as a value`},
		{"arity", "int g(int a) { return a; } int f() { return g(); }", `1:1: "g" takes 1 arguments, got 0`},
		{"array as scalar", "int a[4]; int f() { return a; }", `1:1: array "a" used as a scalar value`},
		{"scalar indexed", "int f(int x) { return x[0]; }", `1:1: "x" is not an array`},
		{"1D array with 2 indices", "int a[4]; int f() { return a[0][0]; }", `1:1: array "a" requires 1 indices, got 2`},
		{"2D array with 1 index", "int a[4][4]; int f() { return a[0]; }", `1:1: array "a" requires 2 indices, got 1`},
		{"assign to const", "const int C = 1; void f() { C = 2; }", `1:1: cannot assign to const "C"`},
		{"assign to array", "int a[4]; void f() { a = 1; }", `1:1: cannot assign to array "a" without an index`},
		{"break outside loop", "void f() { break; }", `1:1: break outside loop`},
		{"continue outside loop", "void f() { continue; }", `1:1: continue outside loop`},
		{"return value from void", "void f() { return 1; }", `1:1: void function "f" returns a value`},
		{"missing return value", "int f() { return; }", `1:1: function "f" must return a value`},
		{"redeclaration", "int f() { int x; int x; return 0; }", `1:1: redeclaration of "x"`},
		{"dup param", "int f(int a, int a) { return 0; }", `1:1: duplicate parameter "a"`},
		{"mutable global scalar", "int g; void f() { g = 1; }", `1:1: global scalar "g" must be const (mutable globals must be arrays in the shared data memory)`},
		{"array arg dim mismatch", "void g(int m[][4]) {} int a[4]; void f() { g(a); }", `1:1: argument 1 of "g": array dimensionality mismatch`},
		{"array arg inner dim", "void g(int m[][4]) {} int a[4][8]; void f() { g(a); }", `1:1: argument 1 of "g": inner dimension 8, want 4`},
		{"scalar passed to array param", "void g(int m[]) {} void f() { g(3); }", `1:1: argument 1 of "g" must be an array name`},
		{"too many initializers", "int a[2] = {1,2,3}; void f() {}", `1:1: 3 initializers for array "a" of 2 elements`},
		{"zero-size array", "void f() { int a[0]; }", `1:1: array dimension must be positive`},
		{"over MaxArrayLen", "int g[16777217]; void f() {}", `1:1: array g has 16777217 elements, over the limit of 16777216`},
		{"2-D count overflows int32", "void f() { int a[46341][46341]; }", `1:1: array a has 2147488281 elements, over the limit of 16777216`},
		{"redeclared function", "int f() { return 1; }\nint f() { return 2; }", `2:1: redeclaration of "f"`},
		{"redeclared global", "int A[4];\nint A[2];\nvoid f() {}", `2:1: redeclaration of "A"`},
		{"call a scalar", "void f() { int x; x(); }", `1:1: call to undefined function "x"`},
		{"function as value", "int f() { return f; }", `1:1: function "f" used as a value`},
		{"assign to function", "void f() { f = 1; }", `1:1: cannot assign to function "f"`},
		{"scalar to array param", "void g(int m[]) {} void f() { int x; g(x); }", `1:1: argument 1 of "g": "x" is not an array`},
		{"undefined array arg", "void g(int m[]) {} void f() { g(zz); }", `1:1: undefined: "zz"`},
		{"inner param dim zero", "void f(int m[][0]) {}", `1:1: inner array dimension must be positive`},
		{"non-constant dim", "int f() { int n = 2; int a[n]; return 0; }", `1:1: expression is not compile-time constant`},
		{"non-constant const", "int f(int n) { const int N = n; return N; }", `1:1: const N initializer is not a constant expression`},
		{"non-constant global init", "int f() { return 1; } int G[2] = {1, f()};", `1:1: global array "G" initializer must be constant`},
		{"global init traps", "int G[2] = {1, 1/0}; void f() {}", `1:1: global array "G" initializer must be constant`},
		{"assign to local const", "void f() { const int N = 1; N = 2; }", `1:1: cannot assign to const "N"`},
		{"for scope ends", "int f() { for (int i = 0; i < 2; i++) { int i = 5; } return i; }", `1:1: undefined: "i"`},
		{"own initializer", "int f() { int x = x; return x; }", `1:1: undefined: "x"`},
		{"void call initializer", "void g() {} void f() { int x = g(); }", `1:1: void function "g" used as a value`},
	}
	for _, c := range cases {
		_, err := lower.LowerSource(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: LowerSource(%q) = %v, want %s", c.name, c.src, err, c.want)
		}
	}
}

func TestCheckAcceptsArrayArgs(t *testing.T) {
	src := `
void g(int m[], int q[][4]) { m[0] = q[0][0]; }
int a[8];
int b[2][4];
void f() { g(a, b); }
`
	if _, err := lower.LowerSource(src); err != nil {
		t.Fatal(err)
	}
}

// TestProgramArrayTotalCap rejects a program whose declared arrays, each
// within MaxArrayLen, add up past it, naming the declaration that crosses.
func TestProgramArrayTotalCap(t *testing.T) {
	if _, err := lower.LowerSource("int g[4096][4096]; void f() {}"); err != nil {
		t.Errorf("array of exactly MaxArrayLen elements rejected: %v", err)
	}
	var src strings.Builder
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&src, "int g%d[1048576];\n", i)
	}
	if _, err := lower.LowerSource(src.String() + "void f() {}"); err != nil {
		t.Fatalf("16 arrays of 2^20 elements (exactly MaxArrayLen) rejected: %v", err)
	}
	_, err := lower.LowerSource(src.String() + "int g16[1048576];\nvoid f() {}")
	if err == nil || err.Error() != "17:1: array g16 brings the program's declared array elements to 17825792, over the limit of 16777216" {
		t.Fatalf("17th array of 2^20 elements: err %v, want one naming g16", err)
	}
	// Locals count toward the same total.
	_, err = lower.LowerSource(src.String() + "void f() { int loc[1]; }")
	if err == nil || err.Error() != "17:1: array loc brings the program's declared array elements to 16777217, over the limit of 16777216" {
		t.Fatalf("local array over the program total: err %v, want one naming loc", err)
	}
}
