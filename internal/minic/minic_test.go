package minic

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestLexBasics(t *testing.T) {
	src := "int x = 42; // comment\n/* block\ncomment */ x <<= 0x1F;"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KwInt, IDENT, Assign, INTLIT, Semi, IDENT, ShlAssign, INTLIT, Semi, EOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
	if toks[3].Val != 42 {
		t.Errorf("literal = %d, want 42", toks[3].Val)
	}
	if toks[7].Val != 0x1F {
		t.Errorf("hex literal = %d, want 31", toks[7].Val)
	}
}

func TestLexAllOperators(t *testing.T) {
	src := "+ - * / % & | ^ ~ ! << >> < <= > >= == != && || = += -= *= /= %= <<= >>= &= |= ^= ++ -- ? : ( ) { } [ ] ; ,"
	want := []Kind{Plus, Minus, Star, Slash, Percent, Amp, Pipe, Caret, Tilde,
		Bang, Shl, Shr, Lt, Le, Gt, Ge, EqEq, NotEq, AndAnd, OrOr, Assign,
		PlusAssign, MinusAssign, StarAssign, SlashAssign, PercentAssign,
		ShlAssign, ShrAssign, AmpAssign, PipeAssign, CaretAssign, Inc, Dec,
		Question, Colon, LParen, RParen, LBrace, RBrace, LBrack, RBrack, Semi, Comma, EOF}
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"@", "/* unterminated", "0x"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", src)
		}
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks, err := Lex("int\nx\n=\n1;")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 2, 3, 4, 4} {
		if toks[i].Line != want {
			t.Errorf("token %d line = %d, want %d", i, toks[i].Line, want)
		}
	}
}

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
	f, err := Parse(validProgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(f); err != nil {
		t.Fatal(err)
	}
	var funcs, vars int
	for _, d := range f.Decls {
		switch d.(type) {
		case *FuncDecl:
			funcs++
		case *VarDecl:
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
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(f); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if v, ok := d.(*VarDecl); ok && v.Name == "buf" {
			if v.Dims[0] != 18 {
				t.Fatalf("buf dim = %d, want 18", v.Dims[0])
			}
			return
		}
	}
	t.Fatal("buf not found")
}

func TestParsePrecedence(t *testing.T) {
	// 2+3*4 must parse as 2+(3*4); fold to check shape.
	p := &Parser{consts: map[string]int32{}}
	f, err := Parse("const int X = 2 + 3 * 4; int a[X]; void f() { a[0]=0; }")
	if err != nil {
		t.Fatal(err)
	}
	_ = p
	for _, d := range f.Decls {
		if v, ok := d.(*VarDecl); ok && v.Name == "a" {
			if v.Dims[0] != 14 {
				t.Fatalf("X = %d, want 14", v.Dims[0])
			}
		}
	}
	// Shift binds tighter than comparison: 1 << 2 < 8 is (1<<2) < 8 = 1.
	f2, err := Parse("const int Y = (1 << 2 < 8) ? 3 : 5; int b[Y]; void g() { b[0]=0; }")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f2.Decls {
		if v, ok := d.(*VarDecl); ok && v.Name == "b" {
			if v.Dims[0] != 3 {
				t.Fatalf("Y = %d, want 3", v.Dims[0])
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int f( {",                          // bad params
		"int f() { return 1 }",              // missing semicolon
		"int f() { 1 + 2; }",                // effect-free statement
		"void f() { int a[0]; }",            // zero-size array
		"void f() { int a[2][2][2]; }",      // 3-D array
		"int f() { if (1) }",                // missing statement
		"float f() {}",                      // unknown type
		"int f() { int x = ; }",             // missing initializer
		"void f() { x = 1",                  // unterminated
		"const int C; void f() {}",          // const without init
		"int x[3] = 5; void f() {}",         // scalar init on array
		"int y = {1}; void f() {}",          // brace init on scalar
		"int g[16777217]; void f() {}",      // over MaxArrayLen
		"void f() { int a[46341][46341]; }", // 2-D count overflows int32
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
	if _, err := Parse("int g[4096][4096]; void f() {}"); err != nil {
		t.Errorf("array of exactly MaxArrayLen elements rejected: %v", err)
	}
}

// TestProgramArrayTotalCap rejects a program whose declared arrays, each
// within MaxArrayLen, add up past it, naming the declaration that crosses.
func TestProgramArrayTotalCap(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&src, "int g%d[1048576];\n", i)
	}
	if _, err := Parse(src.String() + "void f() {}"); err != nil {
		t.Fatalf("16 arrays of 2^20 elements (exactly MaxArrayLen) rejected: %v", err)
	}
	_, err := Parse(src.String() + "int g16[1048576];\nvoid f() {}")
	if err == nil || !strings.Contains(err.Error(), "array g16 ") {
		t.Fatalf("17th array of 2^20 elements: err %v, want one naming g16", err)
	}
	// Locals count toward the same total.
	_, err = Parse(src.String() + "void f() { int loc[1]; }")
	if err == nil || !strings.Contains(err.Error(), "array loc ") {
		t.Fatalf("local array over the program total: err %v, want one naming loc", err)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"undefined var", "int f() { return zz; }"},
		{"undefined func", "int f() { return g(); }"},
		{"void as value", "void g() {} int f() { return g(); }"},
		{"arity", "int g(int a) { return a; } int f() { return g(); }"},
		{"array as scalar", "int a[4]; int f() { return a; }"},
		{"scalar indexed", "int f(int x) { return x[0]; }"},
		{"1D array with 2 indices", "int a[4]; int f() { return a[0][0]; }"},
		{"2D array with 1 index", "int a[4][4]; int f() { return a[0]; }"},
		{"assign to const", "const int C = 1; void f() { C = 2; }"},
		{"assign to array", "int a[4]; void f() { a = 1; }"},
		{"break outside loop", "void f() { break; }"},
		{"continue outside loop", "void f() { continue; }"},
		{"return value from void", "void f() { return 1; }"},
		{"missing return value", "int f() { return; }"},
		{"redeclaration", "int f() { int x; int x; return 0; }"},
		{"dup param", "int f(int a, int a) { return 0; }"},
		{"mutable global scalar", "int g; void f() { g = 1; }"},
		{"array arg dim mismatch", "void g(int m[][4]) {} int a[4]; void f() { g(a); }"},
		{"array arg inner dim", "void g(int m[][4]) {} int a[4][8]; void f() { g(a); }"},
		{"scalar passed to array param", "void g(int m[]) {} void f() { g(3); }"},
		{"too many initializers", "int a[2] = {1,2,3}; void f() {}"},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			continue // parse-time rejection also acceptable
		}
		if err := Check(f); err == nil {
			t.Errorf("%s: Check accepted %q", c.name, c.src)
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
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(f); err != nil {
		t.Fatal(err)
	}
}

// Property: the lexer never panics and always terminates with EOF or error.
func TestLexQuick(t *testing.T) {
	check := func(s string) bool {
		toks, err := Lex(s)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorMessagesCarryPosition(t *testing.T) {
	_, err := Parse("int f() {\n  return zz +;\n}")
	if err == nil {
		t.Fatal("want parse error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error %q lacks line info", err)
	}
}
