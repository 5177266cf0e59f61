package coarsegrain

import (
	"testing"

	"hybridpart/internal/ir"
	"hybridpart/internal/platform"
)

func cgWithBank(num, rows, cols, ports, bank int) platform.CoarseGrain {
	return platform.CoarseGrain{
		NumCGCs: num, Rows: rows, Cols: cols,
		MemPorts: ports, ClockRatio: 3, RegBankWords: bank,
	}
}

// bankFunc builds: load small[0]; load small[1]; mul; load big[0]; add.
func bankFunc() (*ir.Program, *ir.Function, *ir.Block) {
	p := ir.NewProgram()
	f := ir.NewFunction("k")
	small := f.AddArray(ir.ArrayDecl{Name: "s", Len: 64})
	bigArr := p.AddGlobal(ir.ArrayDecl{Name: "g", Len: 4096})
	a, b2, c, d, e := f.NewReg(""), f.NewReg(""), f.NewReg(""), f.NewReg(""), f.NewReg("")
	blk := f.Block(f.Entry)
	blk.Instrs = []ir.Instr{
		{Op: ir.OpLoad, Dst: a, A: ir.Imm(0), Arr: small},
		{Op: ir.OpLoad, Dst: b2, A: ir.Imm(1), Arr: small},
		{Op: ir.OpMul, Dst: c, A: ir.Reg(a), B: ir.Reg(b2)},
		{Op: ir.OpLoad, Dst: d, A: ir.Imm(0), Arr: bigArr},
		{Op: ir.OpAdd, Dst: e, A: ir.Reg(c), B: ir.Reg(d)},
	}
	blk.Term = ir.Terminator{Kind: ir.TermReturn}
	if err := p.AddFunc(f); err != nil {
		panic(err)
	}
	return p, f, blk
}

func TestRegisterBankLoadsAreFree(t *testing.T) {
	prog, f, blk := bankFunc()
	cg := cgWithBank(1, 2, 2, 1, 256)
	s, err := MapDFG(ir.BuildDFG(f, blk), cg, ArrLenOf(prog, f))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(cg); err != nil {
		t.Fatal(err)
	}
	// The two small-array loads must be routed (no port), the big one must
	// take the port.
	if len(s.Routed) != 2 {
		t.Fatalf("routed = %d slots, want 2: %+v", len(s.Routed), s.Routed)
	}
	if len(s.Memory) != 1 {
		t.Fatalf("memory = %d slots, want 1", len(s.Memory))
	}
	// Bank-resident operands feed the multiplier in cycle 0; the big load
	// also issues at cycle 0; the add waits for it → latency 2.
	if s.Latency != 2 {
		t.Fatalf("Latency = %d, want 2", s.Latency)
	}
}

func TestRegisterBankThresholold(t *testing.T) {
	prog, f, blk := bankFunc()
	// Bank smaller than the 64-entry array: everything goes through the
	// single port → at least 3 memory cycles.
	cg := cgWithBank(1, 2, 2, 1, 32)
	s, err := MapDFG(ir.BuildDFG(f, blk), cg, ArrLenOf(prog, f))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Routed) != 0 {
		t.Fatalf("routed = %d slots, want 0", len(s.Routed))
	}
	if s.Latency < 4 {
		t.Fatalf("Latency = %d, want >= 4 (3 serialized loads + compute)", s.Latency)
	}
	if err := s.Validate(cg); err != nil {
		t.Fatal(err)
	}
}

func TestNilArrLenSendsAllToPorts(t *testing.T) {
	_, f, blk := bankFunc()
	cg := cgWithBank(1, 2, 2, 1, 1<<20)
	s, err := MapDFG(ir.BuildDFG(f, blk), cg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Routed) != 0 {
		t.Fatal("nil ArrLenFunc must disable the register bank")
	}
}

func TestParamArraysNeverBankResident(t *testing.T) {
	p := ir.NewProgram()
	f := ir.NewFunction("k")
	arr := f.AddArray(ir.ArrayDecl{Name: "v", IsParam: true})
	f.Params = []ir.Param{{Name: "v", IsArray: true, Arr: arr, Reg: ir.NoReg}}
	r := f.NewReg("")
	blk := f.Block(f.Entry)
	blk.Instrs = []ir.Instr{{Op: ir.OpLoad, Dst: r, A: ir.Imm(0), Arr: arr}}
	blk.Term = ir.Terminator{Kind: ir.TermReturn}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	s, err := MapDFG(ir.BuildDFG(f, blk), cgWithBank(1, 2, 2, 1, 1<<20), ArrLenOf(p, f))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Routed) != 0 {
		t.Fatal("by-reference parameter array treated as bank-resident")
	}
}

func TestLatencyTableBankModel(t *testing.T) {
	prog, f, blk := bankFunc()
	cg := cgWithBank(1, 2, 2, 1, 256)
	tab := BuildLatencyTable(prog, ir.BuildBlockTables(f), cg)
	if !tab.Describes(f, cg) || tab.Describes(f, cgWithBank(1, 2, 2, 1, 32)) {
		t.Fatal("Describes does not match the (function, data-path) the table was built for")
	}
	lat, err := tab.Latency(blk.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 2 {
		t.Fatalf("table latency = %d, want 2 (bank-resident loads are free)", lat)
	}
}

func TestRoutedChainThroughBank(t *testing.T) {
	// store small[0]=x ; load small[0] ; add — the memory-order RAW edge
	// through the bank must be respected even though both accesses are
	// routed.
	p := ir.NewProgram()
	f := ir.NewFunction("k")
	small := f.AddArray(ir.ArrayDecl{Name: "s", Len: 8})
	x := f.NewReg("x")
	y := f.NewReg("")
	z := f.NewReg("")
	blk := f.Block(f.Entry)
	blk.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Dst: y, A: ir.Reg(x), B: ir.Imm(1)},
		{Op: ir.OpStore, A: ir.Imm(0), B: ir.Reg(y), Arr: small},
		{Op: ir.OpLoad, Dst: z, A: ir.Imm(0), Arr: small},
		{Op: ir.OpMul, Dst: f.NewReg(""), A: ir.Reg(z), B: ir.Reg(z)},
	}
	blk.Term = ir.Terminator{Kind: ir.TermReturn}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	cg := cgWithBank(1, 2, 2, 2, 256)
	s, err := MapDFG(ir.BuildDFG(f, blk), cg, ArrLenOf(p, f))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(cg); err != nil {
		t.Fatal(err)
	}
	// add at cycle 0 (avail 1); store/load routed avail 1; mul needs z at
	// cycle >= 1 → latency 2.
	if s.Latency != 2 {
		t.Fatalf("Latency = %d, want 2", s.Latency)
	}
}
