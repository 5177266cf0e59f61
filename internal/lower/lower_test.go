package lower

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"hybridpart/internal/interp"
	"hybridpart/internal/ir"
)

// run lowers src and executes entry with the given args.
func run(t *testing.T, src, entry string, args ...interp.Arg) int32 {
	t.Helper()
	prog, err := LowerSource(src)
	if err != nil {
		t.Fatalf("LowerSource: %v", err)
	}
	m := interp.New(prog)
	v, err := m.Run(entry, args...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	src := `int f(int a, int b) { return (a + b) * (a - b) + a % (b | 1); }`
	got := run(t, src, "f", interp.Int(17), interp.Int(5))
	want := (17+5)*(17-5) + 17%(5|1)
	if got != int32(want) {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestControlFlowLoops(t *testing.T) {
	src := `
int sum_to(int n) {
    int s = 0;
    int i;
    for (i = 1; i <= n; i++) { s += i; }
    return s;
}
int count_down(int n) {
    int c = 0;
    while (n > 0) { n--; c++; }
    return c;
}
int do_once(int n) {
    int c = 0;
    do { c++; } while (c < n);
    return c;
}`
	if got := run(t, src, "sum_to", interp.Int(10)); got != 55 {
		t.Errorf("sum_to(10) = %d, want 55", got)
	}
	if got := run(t, src, "count_down", interp.Int(7)); got != 7 {
		t.Errorf("count_down(7) = %d, want 7", got)
	}
	// do-while executes at least once even when the condition is false.
	if got := run(t, src, "do_once", interp.Int(0)); got != 1 {
		t.Errorf("do_once(0) = %d, want 1", got)
	}
}

func TestShortCircuit(t *testing.T) {
	// A division by zero on the right of && must not execute when the left
	// is false.
	src := `
int f(int a, int b) {
    if (a != 0 && 100 / a > b) { return 1; }
    return 0;
}
int g(int a) { return a == 0 || 100 / a > 10; }`
	if got := run(t, src, "f", interp.Int(0), interp.Int(1)); got != 0 {
		t.Errorf("f(0,1) = %d, want 0 (short-circuit failed)", got)
	}
	if got := run(t, src, "f", interp.Int(4), interp.Int(10)); got != 1 {
		t.Errorf("f(4,10) = %d, want 1", got)
	}
	if got := run(t, src, "g", interp.Int(0)); got != 1 {
		t.Errorf("g(0) = %d, want 1", got)
	}
	if got := run(t, src, "g", interp.Int(50)); got != 0 {
		t.Errorf("g(50) = %d, want 0", got)
	}
}

func TestTernaryAndLogicalValue(t *testing.T) {
	src := `
int max3(int a, int b, int c) {
    int m = (a > b) ? a : b;
    return (m > c) ? m : c;
}
int both(int a, int b) { return a > 0 && b > 0; }`
	if got := run(t, src, "max3", interp.Int(3), interp.Int(9), interp.Int(5)); got != 9 {
		t.Errorf("max3 = %d, want 9", got)
	}
	if got := run(t, src, "both", interp.Int(1), interp.Int(0)); got != 0 {
		t.Errorf("both(1,0) = %d, want 0", got)
	}
	if got := run(t, src, "both", interp.Int(1), interp.Int(2)); got != 1 {
		t.Errorf("both(1,2) = %d, want 1", got)
	}
}

func TestArrays1D2D(t *testing.T) {
	src := `
const int N = 4;
int g[N] = {10, 20, 30, 40};
int f() {
    int m[N][N];
    int i;
    int j;
    for (i = 0; i < N; i++) {
        for (j = 0; j < N; j++) { m[i][j] = i * 10 + j; }
    }
    int s = 0;
    for (i = 0; i < N; i++) { s += m[i][i] + g[i]; }
    return s;
}`
	// diag = 0+11+22+33 = 66; g sum = 100.
	if got := run(t, src, "f"); got != 166 {
		t.Fatalf("f() = %d, want 166", got)
	}
}

func TestCompoundAssignOnArrays(t *testing.T) {
	src := `
int a[3] = {1, 2, 3};
int f() {
    a[1] += 10;
    a[2] <<= 2;
    a[0] *= a[1];
    return a[0] + a[1] + a[2];
}`
	if got := run(t, src, "f"); got != 12+12+12 {
		t.Fatalf("f() = %d, want 36", got)
	}
}

func TestBreakContinue(t *testing.T) {
	src := `
int f(int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) {
        if (i == 5) { continue; }
        if (i == 8) { break; }
        s += i;
    }
    return s;
}`
	// 0+1+2+3+4+6+7 = 23.
	if got := run(t, src, "f", interp.Int(100)); got != 23 {
		t.Fatalf("f = %d, want 23", got)
	}
}

func TestCallsAndArrayParams(t *testing.T) {
	src := `
void scale(int v[], int n, int k) {
    int i;
    for (i = 0; i < n; i++) { v[i] *= k; }
}
int sum(int v[], int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) { s += v[i]; }
    return s;
}
int buf[4] = {1, 2, 3, 4};
int f() {
    scale(buf, 4, 3);
    return sum(buf, 4);
}`
	if got := run(t, src, "f"); got != 30 {
		t.Fatalf("f = %d, want 30", got)
	}
}

func TestHostArrayArgumentAliasing(t *testing.T) {
	src := `void fill(int v[], int n) { int i; for (i = 0; i < n; i++) { v[i] = i * i; } }`
	prog, err := LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog)
	buf := make([]int32, 5)
	if _, err := m.Run("fill", interp.Array(buf), interp.Int(5)); err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != int32(i*i) {
			t.Fatalf("buf[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestTraps(t *testing.T) {
	cases := []struct {
		name, src string
		args      []interp.Arg
	}{
		{"div by zero", "int f(int a) { return 1 / a; }", []interp.Arg{interp.Int(0)}},
		{"rem by zero", "int f(int a) { return 1 % a; }", []interp.Arg{interp.Int(0)}},
		{"load OOB", "int g[2]; int f(int i) { return g[i]; }", []interp.Arg{interp.Int(5)}},
		{"store OOB", "int g[2]; int f(int i) { g[i] = 1; return 0; }", []interp.Arg{interp.Int(-1)}},
	}
	for _, c := range cases {
		prog, err := LowerSource(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m := interp.New(prog)
		if _, err := m.Run("f", c.args...); err == nil {
			t.Errorf("%s: expected trap", c.name)
		}
	}
}

func TestStepLimit(t *testing.T) {
	prog, err := LowerSource("int f() { while (1) {} return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog)
	m.MaxSteps = 1000
	if _, err := m.Run("f"); err == nil {
		t.Fatal("expected step-limit trap")
	}
}

func TestProfileCounts(t *testing.T) {
	src := `
int f(int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) { s += i; }
    return s;
}`
	prog, err := LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog)
	prof := m.EnableProfile()
	if _, err := m.Run("f", interp.Int(10)); err != nil {
		t.Fatal(err)
	}
	f := prog.Func("f")
	// The loop body block must have executed exactly 10 times and the
	// condition block 11 times.
	var sawBody, sawCond bool
	for _, b := range f.Blocks {
		c := prof.Counts["f"][b.ID]
		switch c {
		case 10:
			sawBody = true
		case 11:
			sawCond = true
		}
	}
	if !sawBody || !sawCond {
		t.Fatalf("profile lacks expected counts: %v", prof.Counts["f"])
	}
}

func TestFlattenInlinesEverything(t *testing.T) {
	src := `
int square(int x) { return x * x; }
int cube(int x) { return square(x) * x; }
int poly(int v[], int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) { s += cube(v[i]); }
    return s;
}
int data[3] = {1, 2, 3};
int f() { return poly(data, 3); }`
	prog, err := LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Flatten(prog, "f")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range flat.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall {
				t.Fatalf("call survived flattening: %s", b.Instrs[i].String())
			}
		}
	}
	// The flattened function must compute the same value.
	fp := ir.NewProgram()
	if err := fp.AddFunc(flat); err != nil {
		t.Fatal(err)
	}
	fp.Globals = prog.Globals
	if err := fp.Validate(); err != nil {
		t.Fatalf("flattened program invalid: %v", err)
	}
	want, err := interp.New(prog).Run("f")
	if err != nil {
		t.Fatal(err)
	}
	got, err := interp.New(fp).Run("f")
	if err != nil {
		t.Fatal(err)
	}
	if got != want { // 1 + 8 + 27 = 36
		t.Fatalf("flattened result %d != original %d", got, want)
	}
	if want != 36 {
		t.Fatalf("poly = %d, want 36", want)
	}
}

// TestArrayInitOptional pins ir.ArrayDecl's contract that Init is
// optional: an array declared without an initializer, global or local,
// keeps Init nil, and one declared with an initializer keeps its values.
func TestArrayInitOptional(t *testing.T) {
	prog, err := LowerSource(`
int G[4];
int H[4] = {1, 2};
int f() { int l[2]; int m[2] = {3}; l[0] = 0; m[1] = 0; return G[0] + H[0] + l[0] + m[0]; }`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int32{"G": nil, "H": {1, 2}, "l": nil, "m": {3}}
	arrays := append(append([]ir.ArrayDecl(nil), prog.Globals...), prog.Func("f").Arrays...)
	for _, a := range arrays {
		w, ok := want[a.Name]
		if !ok {
			continue
		}
		delete(want, a.Name)
		if (a.Init == nil) != (w == nil) || !slices.Equal(a.Init, w) {
			t.Errorf("%s: Init = %#v, want %#v", a.Name, a.Init, w)
		}
	}
	if len(want) != 0 {
		t.Errorf("arrays not lowered: %v", want)
	}
}

func TestFlattenLocalArraysNotShared(t *testing.T) {
	// Each inlined call gets its own copy of callee locals; the scratch
	// buffer of one call must not leak into another.
	src := `
int acc(int seed) {
    int scratch[4];
    int i;
    for (i = 0; i < 4; i++) { scratch[i] = seed + i; }
    return scratch[0] + scratch[3];
}
int f() { return acc(10) * 100 + acc(1); }`
	prog, err := LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Flatten(prog, "f")
	if err != nil {
		t.Fatal(err)
	}
	fp := ir.NewProgram()
	fp.Globals = prog.Globals
	if err := fp.AddFunc(flat); err != nil {
		t.Fatal(err)
	}
	got, err := interp.New(fp).Run("f")
	if err != nil {
		t.Fatal(err)
	}
	if want := int32((10+13)*100 + (1 + 4)); got != want {
		t.Fatalf("f = %d, want %d", got, want)
	}
}

func TestFlattenRejectsRecursion(t *testing.T) {
	src := `
int f(int n) { if (n <= 1) { return 1; } return n * f(n - 1); }
int g() { return f(5); }`
	prog, err := LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Flatten(prog, "g"); err == nil {
		t.Fatal("Flatten accepted recursion")
	}
}

func TestCleanupProducesCompactCFG(t *testing.T) {
	src := `
int f(int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) {
        if (i & 1) { s += i; } else { s -= i; }
    }
    return s;
}`
	prog, err := LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("f")
	// Expected shape: entry, for.cond, for.body, then, else, inc-join, exit
	// — allow a little slack but reject blatant bloat.
	if len(f.Blocks) > 8 {
		t.Fatalf("CFG has %d blocks, expected a compact graph:\n%s", len(f.Blocks), f)
	}
	// Every reachable block nonempty or has a branch/return terminator.
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 && b.Term.Kind == ir.TermJump && b.ID != f.Entry {
			t.Errorf("trivial jump block b%d survived cleanup", b.ID)
		}
	}
	// Entry must be block 0 in RPO numbering.
	if f.Entry != 0 {
		t.Errorf("entry = b%d, want b0", f.Entry)
	}
}

func TestRegNamesSurviveLowering(t *testing.T) {
	prog, err := LowerSource("int f(int alpha) { int beta = alpha + 1; return beta; }")
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("f")
	var names []string
	for _, n := range f.RegNames {
		names = append(names, n)
	}
	has := func(want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	if !has("alpha") || !has("beta") {
		t.Fatalf("variable names lost: %v", names)
	}
}

// TestRandomExpressionEquivalence cross-checks mini-C evaluation of randomly
// generated expressions over every operator three ways: direct Go int32
// arithmetic with C's short-circuit rules, the expression as a function body
// the interpreter runs with the leaves as arguments, and the expression
// folded as a const initializer with the leaves as consts. Where Go finds a
// division or remainder by zero or of MinInt32 by -1 on an operand that
// runs, the interpreter must trap and the fold must refuse; otherwise all
// three values agree.
func TestRandomExpressionEquivalence(t *testing.T) {
	// eval returns the value, or false where running the expression traps.
	type node struct {
		src  string
		eval func(v [3]int32) (int32, bool)
	}
	b2i := func(b bool) int32 {
		if b {
			return 1
		}
		return 0
	}
	leaf := func(src string, val int32, arg int) node {
		return node{src, func(v [3]int32) (int32, bool) {
			if arg >= 0 {
				return v[arg], true
			}
			return val, true
		}}
	}
	leafs := []node{
		leaf("a", 0, 0), leaf("b", 0, 1), leaf("c", 0, 2),
		leaf("3", 3, -1), leaf("17", 17, -1), leaf("0", 0, -1), leaf("(-1)", -1, -1),
		leaf("(-2147483647-1)", math.MinInt32, -1),
	}
	arith := map[string]func(x, y int32) (int32, bool){
		"+": func(x, y int32) (int32, bool) { return x + y, true },
		"-": func(x, y int32) (int32, bool) { return x - y, true },
		"*": func(x, y int32) (int32, bool) { return x * y, true },
		"/": func(x, y int32) (int32, bool) {
			if y == 0 || x == math.MinInt32 && y == -1 {
				return 0, false
			}
			return x / y, true
		},
		"%": func(x, y int32) (int32, bool) {
			if y == 0 || x == math.MinInt32 && y == -1 {
				return 0, false
			}
			return x % y, true
		},
		"&":  func(x, y int32) (int32, bool) { return x & y, true },
		"|":  func(x, y int32) (int32, bool) { return x | y, true },
		"^":  func(x, y int32) (int32, bool) { return x ^ y, true },
		"<<": func(x, y int32) (int32, bool) { return x << (uint32(y) & 31), true },
		">>": func(x, y int32) (int32, bool) { return x >> (uint32(y) & 31), true },
		"<":  func(x, y int32) (int32, bool) { return b2i(x < y), true },
		"<=": func(x, y int32) (int32, bool) { return b2i(x <= y), true },
		">":  func(x, y int32) (int32, bool) { return b2i(x > y), true },
		">=": func(x, y int32) (int32, bool) { return b2i(x >= y), true },
		"==": func(x, y int32) (int32, bool) { return b2i(x == y), true },
		"!=": func(x, y int32) (int32, bool) { return b2i(x != y), true },
	}
	var ops []string
	for op := range arith {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	ops = append(ops, "&&", "||")
	bin := func(op string, l, r node) node {
		f := arith[op]
		return node{"(" + l.src + " " + op + " " + r.src + ")", func(v [3]int32) (int32, bool) {
			x, ok := l.eval(v)
			if !ok {
				return 0, false
			}
			switch {
			case op == "&&" && x == 0:
				return 0, true
			case op == "||" && x != 0:
				return 1, true
			}
			y, ok := r.eval(v)
			if !ok {
				return 0, false
			}
			if f == nil {
				return b2i(y != 0), true
			}
			return f(x, y)
		}}
	}
	unary := func(op string, x node) node {
		return node{"(" + op + x.src + ")", func(v [3]int32) (int32, bool) {
			val, ok := x.eval(v)
			switch op {
			case "-":
				return -val, ok
			case "~":
				return ^val, ok
			}
			return b2i(val == 0), ok
		}}
	}
	cond := func(c, th, el node) node {
		return node{"(" + c.src + " ? " + th.src + " : " + el.src + ")", func(v [3]int32) (int32, bool) {
			val, ok := c.eval(v)
			switch {
			case !ok:
				return 0, false
			case val != 0:
				return th.eval(v)
			}
			return el.eval(v)
		}}
	}
	var gen func(rng *rand.Rand, depth int) node
	gen = func(rng *rand.Rand, depth int) node {
		if depth == 0 || rng.Intn(4) == 0 {
			return leafs[rng.Intn(len(leafs))]
		}
		switch rng.Intn(8) {
		case 0:
			return unary([]string{"-", "~", "!"}[rng.Intn(3)], gen(rng, depth-1))
		case 1:
			return cond(gen(rng, depth-1), gen(rng, depth-1), gen(rng, depth-1))
		}
		return bin(ops[rng.Intn(len(ops))], gen(rng, depth-1), gen(rng, depth-1))
	}
	lit := func(v int32) string {
		if v == math.MinInt32 {
			return "(-2147483647-1)"
		}
		return fmt.Sprint(v)
	}
	traps := 0
	check := func(n node, v [3]int32) bool {
		want, ok := n.eval(v)
		if !ok {
			traps++
		}
		src := fmt.Sprintf("int f(int a, int b, int c) { return %s; }", n.src)
		prog, err := LowerSource(src)
		if err != nil {
			t.Logf("lower failed for %s: %v", src, err)
			return false
		}
		got, err := interp.New(prog).Run("f", interp.Int(v[0]), interp.Int(v[1]), interp.Int(v[2]))
		var trap *interp.Trap
		if ok && err != nil || !ok && !errors.As(err, &trap) || ok && got != want {
			t.Logf("%s with %v: run = %d, %v; want %d, trap %v", src, v, got, err, want, !ok)
			return false
		}
		csrc := fmt.Sprintf("const int a = %s; const int b = %s; const int c = %s;\nconst int C = %s;\nint k() { return C; }",
			lit(v[0]), lit(v[1]), lit(v[2]), n.src)
		prog, err = LowerSource(csrc)
		if !ok {
			if err == nil || !strings.Contains(err.Error(), "const C initializer is not a constant expression") {
				t.Logf("%s: fold = %v, want it refused", csrc, err)
				return false
			}
			return true
		}
		if err != nil {
			t.Logf("%s: fold refused: %v", csrc, err)
			return false
		}
		if got, err := interp.New(prog).Run("k"); err != nil || got != want {
			t.Logf("%s: folded %d, %v; want %d", csrc, got, err, want)
			return false
		}
		return true
	}
	// The corners first: the traps and the short-circuits that skip them.
	a, b, c := leafs[0], leafs[1], leafs[2]
	for _, k := range []struct {
		n node
		v [3]int32
	}{
		{bin("/", a, b), [3]int32{math.MinInt32, -1, 0}},
		{bin("%", a, b), [3]int32{math.MinInt32, -1, 0}},
		{bin("/", a, c), [3]int32{7, 1, 0}},
		{bin("%", a, c), [3]int32{7, 1, 0}},
		{bin("&&", c, bin("/", a, c)), [3]int32{7, 1, 0}},
		{bin("||", b, bin("%", a, c)), [3]int32{7, 1, 0}},
		{bin("||", c, bin("%", a, c)), [3]int32{7, 1, 0}},
		{cond(b, a, bin("/", a, c)), [3]int32{7, 1, 0}},
		{cond(c, a, bin("/", a, b)), [3]int32{math.MinInt32, -1, 0}},
		{unary("-", bin("/", a, b)), [3]int32{math.MinInt32, 1, 0}},
	} {
		if !check(k.n, k.v) {
			t.Errorf("corner %s with %v", k.n.src, k.v)
		}
	}
	// Arguments lean towards the corners: 0, -1, MinInt32 and small values.
	corner := func(x int32) int32 {
		switch uint32(x) % 8 {
		case 0:
			return 0
		case 1:
			return -1
		case 2:
			return math.MinInt32
		case 3, 4:
			return x % 33
		}
		return x
	}
	random := func(seed int64, x, y, z int32) bool {
		return check(gen(rand.New(rand.NewSource(seed)), 4), [3]int32{corner(x), corner(y), corner(z)})
	}
	if err := quick.Check(random, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if traps == 0 {
		t.Fatal("no generated expression trapped")
	}
}

// TestRandomShiftSemantics checks C-style masked shifts against Go.
func TestRandomShiftSemantics(t *testing.T) {
	prog, err := LowerSource(`
int shl(int x, int s) { return x << s; }
int shr(int x, int s) { return x >> s; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog)
	check := func(x int32, s uint8) bool {
		sh := int32(s % 32)
		gotL, err := m.Run("shl", interp.Int(x), interp.Int(sh))
		if err != nil {
			return false
		}
		gotR, err := m.Run("shr", interp.Int(x), interp.Int(sh))
		if err != nil {
			return false
		}
		return gotL == x<<uint(sh) && gotR == x>>uint(sh)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
