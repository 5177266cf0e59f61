package coarsegrain

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridpart/internal/ir"
	"hybridpart/internal/platform"
)

func cgWith(num, rows, cols, ports int) platform.CoarseGrain {
	return platform.CoarseGrain{NumCGCs: num, Rows: rows, Cols: cols, MemPorts: ports, ClockRatio: 3}
}

// buildBlock assembles a function around the given instructions.
func buildBlock(instrs []ir.Instr, numRegs int) (*ir.Function, *ir.Block) {
	f := ir.NewFunction("t")
	for i := 0; i < numRegs; i++ {
		f.NewReg("")
	}
	b := f.Block(f.Entry)
	b.Instrs = instrs
	b.Term = ir.Terminator{Kind: ir.TermReturn}
	return f, b
}

func TestMulAddChainsInOneCycle(t *testing.T) {
	// r2 = r0*r1; r3 = r2+r0 — a classic multiply-accumulate. With a 2x2
	// CGC the steering network chains both into a single T_CGC cycle.
	f, b := buildBlock([]ir.Instr{
		{Op: ir.OpMul, Dst: 2, A: ir.Reg(0), B: ir.Reg(1)},
		{Op: ir.OpAdd, Dst: 3, A: ir.Reg(2), B: ir.Reg(0)},
	}, 4)
	s, err := MapDFG(ir.BuildDFG(f, b), cgWith(1, 2, 2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Latency != 1 {
		t.Fatalf("Latency = %d, want 1 (chained multiply-add)", s.Latency)
	}
	if err := s.Validate(cgWith(1, 2, 2, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestChainDepthBoundedByRows(t *testing.T) {
	// A chain of 6 dependent adds on a 2-row CGC needs ceil(6/2)=3 cycles.
	var instrs []ir.Instr
	for i := 0; i < 6; i++ {
		instrs = append(instrs, ir.Instr{Op: ir.OpAdd, Dst: ir.RegID(i + 1), A: ir.Reg(ir.RegID(i)), B: ir.Imm(1)})
	}
	f, b := buildBlock(instrs, 8)
	s, err := MapDFG(ir.BuildDFG(f, b), cgWith(1, 2, 2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Latency != 3 {
		t.Fatalf("Latency = %d, want 3", s.Latency)
	}
}

func TestWidthBoundedByColsAndCGCs(t *testing.T) {
	// 8 independent adds: one 2x2 CGC retires up to 4 per cycle (2 rows can
	// both be used for independent ops) → 2 cycles; two CGCs → 1 cycle.
	var instrs []ir.Instr
	for i := 0; i < 8; i++ {
		instrs = append(instrs, ir.Instr{Op: ir.OpAdd, Dst: ir.RegID(i + 1), A: ir.Reg(0), B: ir.Imm(int32(i))})
	}
	f, b := buildBlock(instrs, 10)
	one, err := MapDFG(ir.BuildDFG(f, b), cgWith(1, 2, 2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	two, err := MapDFG(ir.BuildDFG(f, b), cgWith(2, 2, 2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.Latency != 2 || two.Latency != 1 {
		t.Fatalf("latencies = %d and %d, want 2 and 1", one.Latency, two.Latency)
	}
}

func TestMemPortsSerializeLoads(t *testing.T) {
	// Four independent loads with 2 ports → 2 cycles.
	f := ir.NewFunction("m")
	arr := f.AddArray(ir.ArrayDecl{Name: "x", Len: 16})
	b := f.Block(f.Entry)
	for i := 0; i < 4; i++ {
		b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpLoad, Dst: f.NewReg(""), A: ir.Imm(int32(i)), Arr: arr})
	}
	b.Term = ir.Terminator{Kind: ir.TermReturn}
	s, err := MapDFG(ir.BuildDFG(f, b), cgWith(2, 2, 2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Latency != 2 {
		t.Fatalf("Latency = %d, want 2 (port-bound)", s.Latency)
	}
	if err := s.Validate(cgWith(2, 2, 2, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFeedsComputeNextCycle(t *testing.T) {
	// load r0; r1 = r0+1 — memory results are registered, so the add runs
	// in the following cycle (no chaining through the register bank).
	f := ir.NewFunction("m")
	arr := f.AddArray(ir.ArrayDecl{Name: "x", Len: 4})
	r0 := f.NewReg("")
	r1 := f.NewReg("")
	b := f.Block(f.Entry)
	b.Instrs = []ir.Instr{
		{Op: ir.OpLoad, Dst: r0, A: ir.Imm(0), Arr: arr},
		{Op: ir.OpAdd, Dst: r1, A: ir.Reg(r0), B: ir.Imm(1)},
	}
	b.Term = ir.Terminator{Kind: ir.TermReturn}
	s, err := MapDFG(ir.BuildDFG(f, b), cgWith(1, 2, 2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Latency != 2 {
		t.Fatalf("Latency = %d, want 2", s.Latency)
	}
}

func TestUnmappableOps(t *testing.T) {
	f, b := buildBlock([]ir.Instr{
		{Op: ir.OpDiv, Dst: 2, A: ir.Reg(0), B: ir.Reg(1)},
	}, 3)
	_, err := MapDFG(ir.BuildDFG(f, b), cgWith(1, 2, 2, 2), nil)
	if !errors.Is(err, ErrUnmappable) {
		t.Fatalf("err = %v, want ErrUnmappable", err)
	}
}

func TestEmptyBlockLatency(t *testing.T) {
	f, b := buildBlock(nil, 1)
	s, err := MapDFG(ir.BuildDFG(f, b), cgWith(1, 2, 2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Latency != 1 {
		t.Fatalf("Latency = %d, want 1", s.Latency)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	f, b := buildBlock([]ir.Instr{
		{Op: ir.OpMul, Dst: 2, A: ir.Reg(0), B: ir.Reg(1)},
		{Op: ir.OpAdd, Dst: 3, A: ir.Reg(2), B: ir.Reg(0)},
	}, 4)
	cg := cgWith(1, 2, 2, 2)
	s, err := MapDFG(ir.BuildDFG(f, b), cg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Break the dependence: schedule the consumer before the producer.
	bad := *s
	bad.Compute = append([]Slot(nil), s.Compute...)
	for i := range bad.Compute {
		if bad.Compute[i].Node == 1 {
			bad.Compute[i].Cycle = 0
			bad.Compute[i].Row = 1
		}
		if bad.Compute[i].Node == 0 {
			bad.Compute[i].Cycle = 5
		}
	}
	if err := bad.Validate(cg); err == nil {
		t.Fatal("Validate accepted dependence violation")
	}
	// Duplicate slot.
	dup := *s
	dup.Compute = append(append([]Slot(nil), s.Compute...), s.Compute[0])
	if err := dup.Validate(cg); err == nil {
		t.Fatal("Validate accepted duplicate placement")
	}
}

// randomDFG mirrors the generator used in the finegrain tests.
func randomDFG(rng *rand.Rand, n int) *ir.DFG {
	f := ir.NewFunction("rand")
	arr := f.AddArray(ir.ArrayDecl{Name: "m", Len: 64})
	b := f.Block(f.Entry)
	seed := f.NewReg("")
	b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpConst, Dst: seed, A: ir.Imm(1)})
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpXor, ir.OpLoad, ir.OpStore, ir.OpShr, ir.OpLt}
	for i := 0; i < n; i++ {
		op := ops[rng.Intn(len(ops))]
		pick := func() ir.Operand { return ir.Reg(ir.RegID(rng.Intn(f.NumRegs))) }
		switch op {
		case ir.OpLoad:
			b.Instrs = append(b.Instrs, ir.Instr{Op: op, Dst: f.NewReg(""), A: pick(), Arr: arr})
		case ir.OpStore:
			b.Instrs = append(b.Instrs, ir.Instr{Op: op, A: pick(), B: pick(), Arr: arr})
		default:
			b.Instrs = append(b.Instrs, ir.Instr{Op: op, Dst: f.NewReg(""), A: pick(), B: pick()})
		}
	}
	b.Term = ir.Terminator{Kind: ir.TermReturn}
	return ir.BuildDFG(f, b)
}

// TestScheduleLegalityQuick verifies on random DFGs and data-path shapes
// that every schedule passes Validate and meets the trivial lower bounds.
func TestScheduleLegalityQuick(t *testing.T) {
	check := func(seed int64, szRaw, shapeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw%80) + 1
		shapes := []platform.CoarseGrain{
			cgWith(1, 1, 1, 1), cgWith(1, 2, 2, 2), cgWith(2, 2, 2, 2),
			cgWith(3, 2, 2, 2), cgWith(1, 4, 1, 1), cgWith(2, 1, 4, 3),
		}
		cg := shapes[int(shapeRaw)%len(shapes)]
		d := randomDFG(rng, n)
		s, err := MapDFG(d, cg, nil)
		if err != nil {
			t.Logf("MapDFG: %v", err)
			return false
		}
		if err := s.Validate(cg); err != nil {
			t.Logf("Validate: %v", err)
			return false
		}
		// Lower bounds: critical path / Rows (chaining) and node count /
		// total slot throughput.
		nodes := d.NumNodes()
		memOps := 0
		for i := 0; i < nodes; i++ {
			if ir.ClassOf(d.Op(i)) == ir.ClassMem {
				memOps++
			}
		}
		slots := cg.NumCGCs * cg.Rows * cg.Cols
		minByWidth := int64((nodes - memOps + slots - 1) / slots)
		minByPorts := int64((memOps + cg.MemPorts - 1) / cg.MemPorts)
		if s.Latency < minByWidth || s.Latency < minByPorts {
			t.Logf("latency %d below lower bounds (%d, %d)", s.Latency, minByWidth, minByPorts)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestMoreCGCsNeverSlower mirrors the Tables 2–3 expectation: adding CGCs
// cannot increase block latency.
func TestMoreCGCsNeverSlower(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		d := randomDFG(rng, 40)
		prev := int64(1 << 62)
		for _, num := range []int{1, 2, 3, 4} {
			s, err := MapDFG(d, cgWith(num, 2, 2, 2), nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.Latency > prev {
				t.Fatalf("trial %d: %d CGCs slower (%d > %d)", trial, num, s.Latency, prev)
			}
			prev = s.Latency
		}
	}
}
