package ir

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildLinearFunc returns a function computing t2 = (a+b)*(a-b) in one block.
func buildLinearFunc() (*Program, *Function) {
	p := NewProgram()
	f := NewFunction("f")
	a := f.NewReg("a")
	b := f.NewReg("b")
	f.Params = []Param{{Name: "a", Reg: a}, {Name: "b", Reg: b}}
	f.HasRet = true
	t0, t1, t2 := f.NewReg(""), f.NewReg(""), f.NewReg("")
	entry := f.Block(f.Entry)
	entry.Instrs = []Instr{
		{Op: OpAdd, Dst: t0, A: Reg(a), B: Reg(b)},
		{Op: OpSub, Dst: t1, A: Reg(a), B: Reg(b)},
		{Op: OpMul, Dst: t2, A: Reg(t0), B: Reg(t1)},
	}
	entry.Term = Terminator{Kind: TermReturn, Val: Reg(t2), HasVal: true}
	if err := p.AddFunc(f); err != nil {
		panic(err)
	}
	return p, f
}

func TestValidateLinear(t *testing.T) {
	p, _ := buildLinearFunc()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesBadRegister(t *testing.T) {
	p, f := buildLinearFunc()
	f.Blocks[0].Instrs[0].A = Reg(99)
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range register")
	}
}

func TestValidateCatchesBadBranchTarget(t *testing.T) {
	p, f := buildLinearFunc()
	f.Blocks[0].Term = Terminator{Kind: TermJump, Then: 42}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range jump target")
	}
}

func TestValidateCatchesMissingTerminator(t *testing.T) {
	p, f := buildLinearFunc()
	f.Blocks[0].Term = Terminator{}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted unterminated reachable block")
	}
}

func TestValidateCatchesUndefinedCallee(t *testing.T) {
	p, f := buildLinearFunc()
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, Instr{Op: OpCall, Callee: "nope"})
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted undefined callee")
	}
}

func TestValidateCatchesVoidValueReturn(t *testing.T) {
	p, f := buildLinearFunc()
	f.HasRet = false
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted value return from void function")
	}
}

func TestValidateCatchesUnresolvedArray(t *testing.T) {
	p, f := buildLinearFunc()
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs,
		Instr{Op: OpLoad, Dst: 2, A: Imm(0), Arr: 7})
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted unresolved array reference")
	}
}

func TestDFGLevelsAndEdges(t *testing.T) {
	_, f := buildLinearFunc()
	d := BuildDFG(f, f.Blocks[0])
	if got, want := d.NumNodes(), 3; got != want {
		t.Fatalf("NumNodes = %d, want %d", got, want)
	}
	// add and sub are independent (level 1); mul depends on both (level 2).
	if d.ASAP[0] != 1 || d.ASAP[1] != 1 || d.ASAP[2] != 2 {
		t.Fatalf("ASAP = %v, want [1 1 2]", d.ASAP)
	}
	if d.MaxLevel != 2 {
		t.Fatalf("MaxLevel = %d, want 2", d.MaxLevel)
	}
	if d.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", d.NumEdges())
	}
	// a and b are external inputs.
	if len(d.ExternalIn) != 2 {
		t.Fatalf("ExternalIn = %v, want two registers", d.ExternalIn)
	}
	if err := d.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
}

func TestDFGMemoryDependences(t *testing.T) {
	p := NewProgram()
	f := NewFunction("g")
	arr := f.AddArray(ArrayDecl{Name: "x", Len: 8})
	i0 := f.NewReg("")
	v := f.NewReg("")
	b := f.Block(f.Entry)
	b.Instrs = []Instr{
		{Op: OpConst, Dst: i0, A: Imm(0)},              // 0
		{Op: OpLoad, Dst: v, A: Reg(i0), Arr: arr},     // 1: load x[0]
		{Op: OpStore, A: Reg(i0), B: Reg(v), Arr: arr}, // 2: WAR on 1
		{Op: OpLoad, Dst: v, A: Reg(i0), Arr: arr},     // 3: RAW on 2
		{Op: OpStore, A: Reg(i0), B: Reg(v), Arr: arr}, // 4: WAW on 2, WAR on 3
	}
	b.Term = Terminator{Kind: TermReturn}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	d := BuildDFG(f, b)
	has := func(u, v int) bool {
		for _, s := range d.Succs[u] {
			if s == v {
				return true
			}
		}
		return false
	}
	for _, e := range [][2]int{{1, 2}, {2, 3}, {2, 4}, {3, 4}} {
		if !has(e[0], e[1]) {
			t.Errorf("missing memory dependence %d->%d", e[0], e[1])
		}
	}
	// Levels must serialize the chain load;store;load;store.
	if !(d.ASAP[1] < d.ASAP[2] && d.ASAP[2] < d.ASAP[3] && d.ASAP[3] < d.ASAP[4]) {
		t.Errorf("memory chain not serialized by ASAP levels: %v", d.ASAP)
	}
}

func TestDFGCallBarrier(t *testing.T) {
	p := NewProgram()
	callee := NewFunction("h")
	callee.Block(callee.Entry).Term = Terminator{Kind: TermReturn}
	if err := p.AddFunc(callee); err != nil {
		t.Fatal(err)
	}
	f := NewFunction("g")
	arr := f.AddArray(ArrayDecl{Name: "x", Len: 8})
	i0 := f.NewReg("")
	v := f.NewReg("")
	b := f.Block(f.Entry)
	b.Instrs = []Instr{
		{Op: OpConst, Dst: i0, A: Imm(0)},
		{Op: OpStore, A: Reg(i0), B: Reg(i0), Arr: arr}, // 1
		{Op: OpCall, Callee: "h"},                       // 2: barrier
		{Op: OpLoad, Dst: v, A: Reg(i0), Arr: arr},      // 3
	}
	b.Term = Terminator{Kind: TermReturn}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	d := BuildDFG(f, b)
	if !(d.ASAP[1] < d.ASAP[2] && d.ASAP[2] < d.ASAP[3]) {
		t.Fatalf("call barrier not ordered: ASAP=%v", d.ASAP)
	}
}

func TestRecomputeEdges(t *testing.T) {
	_, f := buildLinearFunc()
	b2 := f.AddBlock("next")
	b2.Term = Terminator{Kind: TermReturn, Val: Imm(0), HasVal: true}
	f.Blocks[0].Term = Terminator{Kind: TermBranch, Cond: Imm(1), Then: b2.ID, Else: b2.ID}
	f.RecomputeEdges()
	if len(f.Blocks[0].Succs) != 1 || f.Blocks[0].Succs[0] != b2.ID {
		t.Fatalf("Succs = %v, want [%d] (branch with equal targets dedupes)", f.Blocks[0].Succs, b2.ID)
	}
	if len(b2.Preds) != 1 || b2.Preds[0] != f.Blocks[0].ID {
		t.Fatalf("Preds = %v", b2.Preds)
	}
}

func TestGlobalArrEncoding(t *testing.T) {
	for i := 0; i < 100; i++ {
		id := GlobalArr(i)
		if !IsGlobalArr(id) {
			t.Fatalf("GlobalArr(%d) = %d not recognized as global", i, id)
		}
		if got := GlobalIndex(id); got != i {
			t.Fatalf("GlobalIndex(GlobalArr(%d)) = %d", i, got)
		}
	}
	if IsGlobalArr(0) || IsGlobalArr(NoArr) {
		t.Fatal("local/absent IDs misclassified as global")
	}
}

func TestDotOutput(t *testing.T) {
	_, f := buildLinearFunc()
	var buf bytes.Buffer
	if err := WriteCFGDot(&buf, f); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") || !strings.Contains(buf.String(), "b0") {
		t.Fatalf("CFG dot output malformed:\n%s", buf.String())
	}
	buf.Reset()
	d := BuildDFG(f, f.Blocks[0])
	if err := WriteDFGDot(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rank=same") {
		t.Fatalf("DFG dot output missing level ranks:\n%s", buf.String())
	}
}

// randomStraightLineBlock builds a block of n random value instructions whose
// operands refer only to previously defined registers, so the def-use DFG is
// a random DAG.
func randomStraightLineBlock(rng *rand.Rand, n int) (*Function, *Block) {
	f := NewFunction("rand")
	arr := f.AddArray(ArrayDecl{Name: "m", Len: 64})
	b := f.Block(f.Entry)
	seed := f.NewReg("")
	b.Instrs = append(b.Instrs, Instr{Op: OpConst, Dst: seed, A: Imm(1)})
	ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpXor, OpShl, OpLoad, OpStore}
	for i := 0; i < n; i++ {
		op := ops[rng.Intn(len(ops))]
		pick := func() Operand {
			return Reg(RegID(rng.Intn(f.NumRegs)))
		}
		switch op {
		case OpLoad:
			b.Instrs = append(b.Instrs, Instr{Op: op, Dst: f.NewReg(""), A: pick(), Arr: arr})
		case OpStore:
			b.Instrs = append(b.Instrs, Instr{Op: op, A: pick(), B: pick(), Arr: arr})
		default:
			b.Instrs = append(b.Instrs, Instr{Op: op, Dst: f.NewReg(""), A: pick(), B: pick()})
		}
	}
	b.Term = Terminator{Kind: TermReturn}
	return f, b
}

func TestDFGPropertiesQuick(t *testing.T) {
	check := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f, b := randomStraightLineBlock(rng, int(sz%60)+1)
		d := BuildDFG(f, b)
		if err := d.CheckAcyclic(); err != nil {
			return false
		}
		for u, succs := range d.Succs {
			for _, v := range succs {
				if d.ASAP[u] >= d.ASAP[v] {
					return false // levels must strictly increase along edges
				}
			}
		}
		for i := range d.ASAP {
			if d.ASAP[i] < 1 || d.ASAP[i] > d.MaxLevel {
				return false
			}
		}
		// Every node appears in exactly one level group.
		total := 0
		for lvl := 1; lvl <= d.MaxLevel; lvl++ {
			total += len(d.NodesAtLevel(lvl))
		}
		return total == d.NumNodes()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpStringAndClass(t *testing.T) {
	cases := []struct {
		op    Op
		class Class
	}{
		{OpAdd, ClassALU}, {OpShr, ClassALU}, {OpEq, ClassALU},
		{OpMul, ClassMul}, {OpDiv, ClassDiv}, {OpRem, ClassDiv},
		{OpLoad, ClassMem}, {OpStore, ClassMem}, {OpCall, ClassCall},
	}
	for _, c := range cases {
		if got := ClassOf(c.op); got != c.class {
			t.Errorf("ClassOf(%s) = %s, want %s", c.op, got, c.class)
		}
		if c.op.String() == "" || strings.HasPrefix(c.op.String(), "op(") {
			t.Errorf("missing name for op %d", c.op)
		}
	}
}

func TestOperandAndInstrString(t *testing.T) {
	in := Instr{Op: OpAdd, Dst: 3, A: Reg(1), B: Imm(7)}
	if got := in.String(); got != "r3 = add r1, 7" {
		t.Errorf("Instr.String() = %q", got)
	}
	st := Instr{Op: OpStore, Arr: 0, A: Reg(2), B: Imm(9)}
	if got := st.String(); got != "store a0[r2] = 9" {
		t.Errorf("store String() = %q", got)
	}
	call := Instr{Op: OpCall, Callee: "f", Args: []Operand{Reg(1), Imm(2)}, CallHasDst: true, Dst: 5}
	if got := call.String(); got != "r5 = call f(r1, 2)" {
		t.Errorf("call String() = %q", got)
	}
}
