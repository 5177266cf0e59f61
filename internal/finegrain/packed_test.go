package finegrain

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hybridpart/internal/ir"
	"hybridpart/internal/platform"
)

// testCosts pins the characterization these tests were calibrated against
// (independent of the package default, which targets the paper benchmarks).
func testCosts() platform.OpCosts {
	return platform.OpCosts{
		AreaALU: 8, AreaMul: 32, AreaDiv: 64, AreaMem: 8,
		LatALU: 1, LatMul: 2, LatDiv: 8, LatMem: 1,
	}
}

func fgWith(area, reconfig int) platform.FineGrain {
	return platform.FineGrain{Area: area, ReconfigCycles: reconfig, Costs: testCosts()}
}

// oneBlockFunc builds a single-block function whose block holds instrs.
func oneBlockFunc(instrs func(f *ir.Function, x ir.RegID) []ir.Instr) *ir.Function {
	f := ir.NewFunction("one")
	x := f.NewReg("x")
	b := f.Block(f.Entry)
	b.Instrs = instrs(f, x)
	b.Term = ir.Terminator{Kind: ir.TermReturn}
	return f
}

// wideFunc is one block of n independent adds (all at level 1).
func wideFunc(n int) *ir.Function {
	return oneBlockFunc(func(f *ir.Function, x ir.RegID) []ir.Instr {
		var out []ir.Instr
		for i := 0; i < n; i++ {
			out = append(out, ir.Instr{Op: ir.OpAdd, Dst: f.NewReg(""), A: ir.Reg(x), B: ir.Imm(int32(i))})
		}
		return out
	})
}

// chainFunc is one block holding a single dependence chain of n ops.
func chainFunc(n int) *ir.Function {
	return oneBlockFunc(func(f *ir.Function, x ir.RegID) []ir.Instr {
		r := f.NewReg("")
		out := []ir.Instr{{Op: ir.OpConst, Dst: r, A: ir.Imm(1)}}
		for i := 0; i < n-1; i++ {
			nr := f.NewReg("")
			out = append(out, ir.Instr{Op: ir.OpAdd, Dst: nr, A: ir.Reg(r), B: ir.Imm(1)})
			r = nr
		}
		return out
	})
}

// TestPackOneBlock checks Figure 3's per-block cost on single-block
// functions: one execution costs the block's level cycles plus one
// reconfiguration per temporal partition it occupies.
func TestPackOneBlock(t *testing.T) {
	cases := []struct {
		name       string
		f          *ir.Function
		fg         platform.FineGrain
		partitions int
		levelCyc   int64
		total      int64
	}{
		// 10 ALU ops of 8 units with A_FPGA = 32: 4 nodes per partition → 3
		// partitions, each holding one level-1 run of cost 1.
		{"area forces split", wideFunc(10), fgWith(32, 10), 3, 3, 3 * (1 + 10)},
		// A chain of 12 dependent ALU ops in ample area: 12 levels.
		{"chain levels", chainFunc(12), fgWith(1500, 32), 1, 12, 12 + 32},
		// One level holding an add and a mul (latency 2): the level costs 2.
		{"mul dominates level", oneBlockFunc(func(f *ir.Function, x ir.RegID) []ir.Instr {
			return []ir.Instr{
				{Op: ir.OpAdd, Dst: f.NewReg(""), A: ir.Reg(x), B: ir.Imm(1)},
				{Op: ir.OpMul, Dst: f.NewReg(""), A: ir.Reg(x), B: ir.Imm(3)},
			}
		}), fgWith(1500, 0), 1, 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pm, err := PackFunction(c.f, c.fg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if pm.NumPartitions != c.partitions || pm.InternalCrossings[0] != c.partitions-1 {
				t.Fatalf("partitions = %d (internal crossings %d), want %d",
					pm.NumPartitions, pm.InternalCrossings[0], c.partitions)
			}
			if pm.PerBlockCycles[0] != c.levelCyc {
				t.Fatalf("level cycles = %d, want %d", pm.PerBlockCycles[0], c.levelCyc)
			}
			if got := totalCycles(pm, []uint64{1}, nil, c.fg.ReconfigCycles); got != c.total {
				t.Fatalf("one execution = %d cycles, want %d", got, c.total)
			}
		})
	}
}

func TestMapDFGSinglePartition(t *testing.T) {
	// 10 ALU ops × 8 units = 80 << 1500: one partition, all at level 1 →
	// one step of ALU latency (1) + one reconfiguration (32).
	pm, err := PackFunction(wideFunc(10), fgWith(1500, 32), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pm.NumPartitions != 1 {
		t.Fatalf("partitions = %d, want 1", pm.NumPartitions)
	}
	if got := totalCycles(pm, []uint64{1}, nil, 32); got != 1+32 {
		t.Fatalf("one execution = %d cycles, want 33", got)
	}
}

func TestMapDFGEmptyBlock(t *testing.T) {
	pm, err := PackFunction(oneBlockFunc(func(*ir.Function, ir.RegID) []ir.Instr { return nil }), fgWith(100, 32), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := totalCycles(pm, []uint64{1}, nil, 32); got != 1 || pm.NumPartitions != 0 {
		t.Fatalf("empty block: cycles=%d partitions=%d, want 1 and 0", got, pm.NumPartitions)
	}
}

func TestMapDFGNodeTooBig(t *testing.T) {
	f := oneBlockFunc(func(f *ir.Function, x ir.RegID) []ir.Instr {
		return []ir.Instr{{Op: ir.OpMul, Dst: f.NewReg(""), A: ir.Reg(x), B: ir.Reg(x)}}
	})
	// A_FPGA below the multiplier area must be rejected, not loop.
	if _, err := PackFunction(f, fgWith(16, 0), nil); err == nil {
		t.Fatal("expected error for operator larger than A_FPGA")
	}
}

// TestPackFunctionEq4 checks the eq. 4 sum: per-block level cycles
// weighted by execution frequency, over the included blocks only.
func TestPackFunctionEq4(t *testing.T) {
	f := ir.NewFunction("two")
	x := f.NewReg("x")
	b0 := f.Block(f.Entry)
	b0.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Dst: f.NewReg(""), A: ir.Reg(x), B: ir.Imm(1)},
	}
	b1 := f.AddBlock("second")
	b1.Instrs = []ir.Instr{
		{Op: ir.OpMul, Dst: f.NewReg(""), A: ir.Reg(x), B: ir.Reg(x)},
		{Op: ir.OpMul, Dst: f.NewReg(""), A: ir.Reg(x), B: ir.Imm(3)},
	}
	b0.Term = ir.Terminator{Kind: ir.TermJump, Then: b1.ID}
	b1.Term = ir.Terminator{Kind: ir.TermReturn}

	fg := fgWith(1500, 10)
	freq := []uint64{5, 7}
	pm, err := PackFunction(f, fg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// b0: one ALU level → 1; b1: one level of muls → 2.
	if pm.PerBlockCycles[0] != 1 || pm.PerBlockCycles[1] != 2 {
		t.Fatalf("PerBlockCycles = %v, want [1 2]", pm.PerBlockCycles)
	}
	if got, want := pm.LevelCycles(freq), int64(5*1+7*2); got != want {
		t.Fatalf("LevelCycles = %d, want %d", got, want)
	}
	// Both blocks share one partition: only the initial configuration.
	edges := []EdgeFreq{{From: 0, To: 1, N: 5}}
	if got, want := totalCycles(pm, freq, edges, 10), int64(5*1+7*2)+10; got != want {
		t.Fatalf("totalCycles = %d, want %d", got, want)
	}
	// Restricted to block 1 only.
	if err := pm.Pack(ir.BuildBlockTables(f), fg, func(id ir.BlockID) bool { return id == 1 }); err != nil {
		t.Fatal(err)
	}
	if got, want := pm.LevelCycles(freq), int64(7*2); got != want {
		t.Fatalf("filtered LevelCycles = %d, want %d", got, want)
	}
}

// TestMoreAreaNeverSlower: growing A_FPGA can only reduce (or keep) the
// cycle count of a block that straddles many partitions — the paper's
// Tables 2–3 rely on this.
func TestMoreAreaNeverSlower(t *testing.T) {
	f := wideFunc(40)
	prev := int64(1 << 62)
	for _, area := range []int{40, 80, 160, 320, 640, 1500, 5000} {
		pm, err := PackFunction(f, fgWith(area, 32), nil)
		if err != nil {
			t.Fatalf("area %d: %v", area, err)
		}
		got := totalCycles(pm, []uint64{1}, nil, 32)
		if got > prev {
			t.Fatalf("area %d: cycles %d > previous %d", area, got, prev)
		}
		prev = got
	}
}

// randomFunc builds a function of nblocks random straight-line blocks
// chained by jumps (the ir tests' generator style); a block may be empty.
func randomFunc(rng *rand.Rand, nblocks int) *ir.Function {
	f := ir.NewFunction("rand")
	arr := f.AddArray(ir.ArrayDecl{Name: "m", Len: 64})
	seed := f.NewReg("")
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpXor, ir.OpLoad, ir.OpStore, ir.OpShl}
	var prev *ir.Block
	for k := 0; k < nblocks; k++ {
		b := f.Block(f.Entry)
		if k == 0 {
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpConst, Dst: seed, A: ir.Imm(1)})
		} else {
			b = f.AddBlock(fmt.Sprintf("b%d", k))
			prev.Term = ir.Terminator{Kind: ir.TermJump, Then: b.ID}
		}
		for i, n := 0, rng.Intn(48); i < n; i++ {
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
		prev = b
	}
	return f
}

// TestTemporalPartitionInvariants checks the Figure 3 postconditions of
// Pack on random functions and random block exclusions, reusing one
// PackedMapping so stale entries from a previous draw would show:
//   - an excluded block is unmapped and costs nothing;
//   - partitions only grow along the walk, and every block reports its
//     internal crossings as LastPart−FirstPart;
//   - every partition stays within A_FPGA, and next-fit opens a partition
//     only when the next node does not fit;
//   - a block costs between its per-level maxima and that plus one slowest
//     operator per internal crossing, exactly the former when unsplit;
//   - one execution of every block pays eq. 4 level cycles plus one
//     reconfiguration per partition load.
func TestTemporalPartitionInvariants(t *testing.T) {
	var pm PackedMapping
	check := func(seed int64, blocksRaw, areaRaw, excludeMask uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomFunc(rng, int(blocksRaw%3)+1)
		// Area between the largest op (32) and ~4x.
		area := int(areaRaw%96) + 33
		fg := platform.FineGrain{Area: area, ReconfigCycles: 7, Costs: testCosts()}
		excluded := func(id ir.BlockID) bool { return excludeMask>>id&1 == 1 }
		include := func(id ir.BlockID) bool { return !excluded(id) }
		if err := pm.Pack(ir.BuildBlockTables(f), fg, include); err != nil {
			t.Log(err)
			return false
		}
		fail := func(format string, args ...any) bool {
			t.Logf("seed %d: "+format, append([]any{seed}, args...)...)
			return false
		}
		part, crossings, totalArea, maxSz := 0, 0, 0, 0
		for _, b := range f.Blocks {
			id := b.ID
			first, last := pm.FirstPart[id], pm.LastPart[id]
			if excluded(id) {
				if pm.Included[id] || pm.PerBlockCycles[id] != 0 || pm.InternalCrossings[id] != 0 || first != part || last != part {
					return fail("excluded b%d mapped: cycles %d, partitions [%d, %d]", id, pm.PerBlockCycles[id], first, last)
				}
				continue
			}
			// A block opens the next partition only if a node precedes it.
			if hi := part + min(totalArea, 1); !pm.Included[id] || first < part || first > hi || last < first {
				return fail("b%d: partitions [%d, %d] after partition %d", id, first, last, part)
			}
			if pm.InternalCrossings[id] != last-first {
				return fail("b%d: %d internal crossings over [%d, %d]", id, pm.InternalCrossings[id], first, last)
			}
			d := ir.BuildDFG(f, b)
			var levelSum, maxLat int64
			for lvl := 1; lvl <= d.MaxLevel; lvl++ {
				var levelMax int64
				for _, u := range d.NodesAtLevel(lvl) {
					class := ir.ClassOf(d.Op(u))
					totalArea += fg.Costs.Area(class)
					maxSz = max(maxSz, fg.Costs.Area(class))
					levelMax = max(levelMax, int64(fg.Costs.Latency(class)))
				}
				levelSum += levelMax
				maxLat = max(maxLat, levelMax)
			}
			lo, hi := max(levelSum, 1), levelSum+int64(last-first)*maxLat
			if cyc := pm.PerBlockCycles[id]; cyc < lo || cyc > max(hi, 1) {
				return fail("b%d: %d cycles outside [%d, %d]", id, cyc, lo, hi)
			}
			part = last
			crossings += last - first
		}
		np := pm.NumPartitions
		switch {
		case totalArea == 0 && np != 0:
			return fail("%d partitions for no nodes", np)
		case totalArea > 0 && np != part+1:
			return fail("%d partitions, last block ends in partition %d", np, part)
		case totalArea > np*area:
			return fail("%d units in %d partitions of %d", totalArea, np, area)
		case np > 1 && totalArea <= (np-1)*(area-maxSz):
			return fail("%d units opened %d partitions of %d early", totalArea, np, area)
		}
		ones := make([]uint64, len(f.Blocks))
		for i := range ones {
			ones[i] = 1
		}
		want := pm.LevelCycles(ones) + int64(crossings+min(np, 1))*int64(fg.ReconfigCycles)
		if got := totalCycles(&pm, ones, nil, fg.ReconfigCycles); got != want {
			return fail("totalCycles = %d, want %d", got, want)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPackFromMatchesPack: resuming a packing at the block a move takes off
// the FPGA gives exactly the from-scratch packing, on random functions,
// exclusions, regions and resume points, including cost tables where ALU
// and memory operators take no area (so the walk can reach the resume
// point with an empty partition 0 and still have put nodes on the fabric).
// Both packings reuse their values across draws, so stale entries would
// show.
func TestPackFromMatchesPack(t *testing.T) {
	var prev, got, want PackedMapping
	check := func(seed int64, blocksRaw, areaRaw, excludeMask, fromRaw uint8, zeroArea, twoRegions bool) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomFunc(rng, int(blocksRaw%6)+1)
		tables := ir.BuildBlockTables(f)
		fg := platform.FineGrain{Area: int(areaRaw%96) + 33, ReconfigCycles: 7, Costs: testCosts()}
		if zeroArea {
			fg.Costs.AreaALU, fg.Costs.AreaMem = 0, 0
		}
		if twoRegions {
			fg.Area, fg.Regions = 2*fg.Area, 2
		}
		from := ir.BlockID(int(fromRaw) % len(f.Blocks))
		// prev still holds block from; the move takes it off.
		include := func(id ir.BlockID) bool { return excludeMask>>id&1 == 0 && id != from }
		if err := prev.Pack(tables, fg, func(id ir.BlockID) bool { return include(id) || id == from }); err != nil {
			t.Log(err)
			return false
		}
		if err := want.Pack(tables, fg, include); err != nil {
			t.Log(err)
			return false
		}
		if err := got.PackFrom(&prev, from, tables, fg, include); err != nil {
			t.Log(err)
			return false
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d, resumed at b%d:\n got %+v\nwant %+v", seed, from, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if err := got.PackFrom(&got, 0, ir.BuildBlockTables(twoBlockFunc()), fgWith(64, 1), nil); err == nil {
		t.Fatal("PackFrom accepted its own packing as the predecessor")
	}
}

// twoBlockFunc builds entry(8 ALU ops) -> second(8 ALU ops) -> return.
func twoBlockFunc() *ir.Function {
	f := ir.NewFunction("two")
	x := f.NewReg("x")
	b0 := f.Block(f.Entry)
	for i := 0; i < 8; i++ {
		b0.Instrs = append(b0.Instrs, ir.Instr{Op: ir.OpAdd, Dst: f.NewReg(""), A: ir.Reg(x), B: ir.Imm(int32(i))})
	}
	b1 := f.AddBlock("second")
	for i := 0; i < 8; i++ {
		b1.Instrs = append(b1.Instrs, ir.Instr{Op: ir.OpXor, Dst: f.NewReg(""), A: ir.Reg(x), B: ir.Imm(int32(i))})
	}
	b0.Term = ir.Terminator{Kind: ir.TermJump, Then: b1.ID}
	b1.Term = ir.Terminator{Kind: ir.TermReturn}
	return f
}

func TestPackFunctionSharesPartitions(t *testing.T) {
	f := twoBlockFunc()
	// 16 ALU ops × 8 units = 128: fits one partition at area 200.
	pm, err := PackFunction(f, fgWith(200, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pm.NumPartitions != 1 {
		t.Fatalf("partitions = %d, want 1", pm.NumPartitions)
	}
	if pm.FirstPart[0] != pm.FirstPart[1] {
		t.Fatalf("blocks did not share the partition: %v", pm.FirstPart)
	}
	// No crossings: total = freq-weighted level cycles + 1 initial config.
	freq := []uint64{5, 5}
	edges := []EdgeFreq{{From: 0, To: 1, N: 5}}
	got := totalCycles(pm, freq, edges, 10)
	if want := int64(5*1+5*1) + 10; got != want {
		t.Fatalf("totalCycles = %d, want %d", got, want)
	}
}

func TestPackFunctionCrossingCharged(t *testing.T) {
	f := twoBlockFunc()
	// Area 64 holds 8 ALU ops: each block gets its own partition.
	pm, err := PackFunction(f, fgWith(64, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pm.NumPartitions != 2 {
		t.Fatalf("partitions = %d, want 2", pm.NumPartitions)
	}
	freq := []uint64{5, 5}
	edges := []EdgeFreq{{From: 0, To: 1, N: 5}}
	got := totalCycles(pm, freq, edges, 10)
	// 10 level cycles + (5 crossings + 1 initial) × 10 reconfig.
	if want := int64(10) + 6*10; got != want {
		t.Fatalf("totalCycles = %d, want %d", got, want)
	}
}

func TestPackFunctionStraddlingBlock(t *testing.T) {
	// One block of 8 ALU ops with area for 4: the block straddles two
	// partitions and pays an internal crossing per execution.
	f := ir.NewFunction("straddle")
	x := f.NewReg("x")
	b0 := f.Block(f.Entry)
	for i := 0; i < 8; i++ {
		b0.Instrs = append(b0.Instrs, ir.Instr{Op: ir.OpAdd, Dst: f.NewReg(""), A: ir.Reg(x), B: ir.Imm(int32(i))})
	}
	b0.Term = ir.Terminator{Kind: ir.TermReturn}
	pm, err := PackFunction(f, fgWith(32, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pm.InternalCrossings[0] != 1 {
		t.Fatalf("internal crossings = %d, want 1", pm.InternalCrossings[0])
	}
	got := totalCycles(pm, []uint64{7}, nil, 10)
	// Per exec: 2 level-group cycles (level 1 split across two partitions)
	// + 1 internal crossing; plus 1 initial config.
	if want := int64(7*2) + (7+1)*10; got != want {
		t.Fatalf("totalCycles = %d, want %d", got, want)
	}
}

func TestPackFunctionExcludesBlocks(t *testing.T) {
	f := twoBlockFunc()
	pm, err := PackFunction(f, fgWith(64, 10), func(id ir.BlockID) bool { return id == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if pm.Included[1] {
		t.Fatal("excluded block marked included")
	}
	if pm.NumPartitions != 1 {
		t.Fatalf("partitions = %d, want 1 (half the work excluded)", pm.NumPartitions)
	}
	// Edges touching excluded blocks never charge reconfiguration.
	got := totalCycles(pm, []uint64{5, 5}, []EdgeFreq{{From: 0, To: 1, N: 5}}, 10)
	if want := int64(5) + 10; got != want {
		t.Fatalf("totalCycles = %d, want %d", got, want)
	}
}

func TestPackFunctionEmptyAndOversize(t *testing.T) {
	f := ir.NewFunction("empty")
	f.Block(f.Entry).Term = ir.Terminator{Kind: ir.TermReturn}
	pm, err := PackFunction(f, fgWith(64, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pm.NumPartitions != 0 {
		t.Fatalf("empty function produced %d partitions", pm.NumPartitions)
	}
	if got := totalCycles(pm, []uint64{3}, nil, 10); got != 3 {
		t.Fatalf("totalCycles = %d, want 3 (control only)", got)
	}

	g := ir.NewFunction("big")
	x := g.NewReg("x")
	gb := g.Block(g.Entry)
	gb.Instrs = []ir.Instr{{Op: ir.OpMul, Dst: g.NewReg(""), A: ir.Reg(x), B: ir.Reg(x)}}
	gb.Term = ir.Terminator{Kind: ir.TermReturn}
	if _, err := PackFunction(g, fgWith(16, 0), nil); err == nil {
		t.Fatal("oversized operator accepted")
	}
}

func TestPackedMoreAreaNeverSlower(t *testing.T) {
	f := twoBlockFunc()
	freq := []uint64{100, 100}
	edges := []EdgeFreq{{From: 0, To: 1, N: 100}}
	prev := int64(1 << 62)
	for _, area := range []int{32, 64, 128, 256, 1024} {
		pm, err := PackFunction(f, fgWith(area, 25), nil)
		if err != nil {
			t.Fatalf("area %d: %v", area, err)
		}
		got := totalCycles(pm, freq, edges, 25)
		if got > prev {
			t.Fatalf("area %d slower: %d > %d", area, got, prev)
		}
		prev = got
	}
}

// totalCycles is eq. 4 with every dynamic crossing charged: the reference
// the packing tests check, from the mapping's own Crossings count.
func totalCycles(pm *PackedMapping, freq []uint64, edges []EdgeFreq, reconfigCycles int) int64 {
	return pm.CrossedCycles(freq, pm.Crossings(freq, edges), reconfigCycles)
}
