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

// render prints e fully parenthesized, to show how it parsed.
func render(e Expr) string {
	switch e := e.(type) {
	case *IntLit:
		return fmt.Sprint(e.Val)
	case *Ident:
		return e.Name
	case *UnaryExpr:
		return "(" + e.Op.String() + render(e.X) + ")"
	case *BinaryExpr:
		return "(" + render(e.X) + " " + e.Op.String() + " " + render(e.Y) + ")"
	case *CondExpr:
		return "(" + render(e.Cond) + " ? " + render(e.Then) + " : " + render(e.Else) + ")"
	}
	return fmt.Sprintf("%T", e)
}

func TestParsePrecedence(t *testing.T) {
	for src, want := range map[string]string{
		"2 + 3 * 4":               "(2 + (3 * 4))",
		"1 << 2 < 8":              "((1 << 2) < 8)",
		"(1 << 2 < 8) ? 3 : 5":    "(((1 << 2) < 8) ? 3 : 5)",
		"a || b && c | d ^ e & f": "(a || (b && (c | (d ^ (e & f)))))",
		"a == b != c":             "((a == b) != c)",
		"a - b - c":               "((a - b) - c)",
		"-a * ~b % !c":            "(((-a) * (~b)) % (!c))",
		"a ? b : c ? d : e":       "(a ? b : (c ? d : e))",
		"a >> 1 + 2":              "(a >> (1 + 2))",
		"a <= b >= c > d":         "(((a <= b) >= c) > d)",
		"x / y * z":               "((x / y) * z)",
		"a ? b ? c : d : e":       "(a ? (b ? c : d) : e)",
		"1 - -2":                  "(1 - (-2))",
		"+7":                      "7",
	} {
		f, err := Parse("const int X = " + src + ";")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := render(f.Decls[0].(*VarDecl).Init); got != want {
			t.Errorf("%s parsed as %s, want %s", src, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int f( {",                     // bad params
		"int f() { return 1 }",         // missing semicolon
		"int f() { 1 + 2; }",           // effect-free statement
		"void f() { int a[2][2][2]; }", // 3-D array
		"int f() { if (1) }",           // missing statement
		"float f() {}",                 // unknown type
		"int f() { int x = ; }",        // missing initializer
		"void f() { x = 1",             // unterminated
		"const int C; void f() {}",     // const without init
		"int x[3] = 5; void f() {}",    // scalar init on array
		"int y = {1}; void f() {}",     // brace init on scalar
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

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
