package ir

// BlockTables holds the mapping-independent per-block tables of one
// function: every block's DFG, its nodes in the level-major order the
// temporal partitioning walks, and its live-in/out footprint. They derive
// from instructions and terminators only — never from the CFG edge lists,
// which analysis recomputes in place — and from no platform or mapping
// parameter, so one instance serves every candidate mapping of a compiled
// application. A BlockTables is read-only after BuildBlockTables returns and
// safe for concurrent use.
type BlockTables struct {
	F *Function
	// DFG[b] is block b's data-flow graph.
	DFG []*DFG
	// Levels[b] lists block b's DFG nodes level-major: by ascending ASAP
	// level, in instruction order within a level.
	Levels [][]LevelNode
	// LiveIO[b] is block b's scalar live-in/out footprint.
	LiveIO []LiveIO
}

// LevelNode is one DFG node in level-major order.
type LevelNode struct {
	Node  int32 // instruction index within the block
	Level int32 // 1-based ASAP level
	Class Class
}

// LiveIO counts the scalar values a basic block exchanges with the rest of
// the application: In is the number of distinct registers read before any
// local definition (the block's live-ins), Out is the number of distinct
// locally defined registers observable outside one execution of the block —
// used by another block, by the block's own terminator (the branch decision
// returns to the sequencer), or loop-carried back into the block itself.
//
// When a kernel moves to the coarse-grain data-path these are exactly the
// words that must cross through the shared data memory on every invocation
// (arrays already live there), so t_comm scales with In+Out.
type LiveIO struct {
	In  int
	Out int
}

// BuildBlockTables builds every block's DFG once and derives the level
// order and the live-in/out footprints from it.
func BuildBlockTables(f *Function) *BlockTables {
	n := len(f.Blocks)
	t := &BlockTables{
		F:      f,
		DFG:    make([]*DFG, n),
		Levels: make([][]LevelNode, n),
	}
	total := 0
	for _, b := range f.Blocks {
		total += len(b.Instrs)
	}
	// One backing array for every block's level order.
	nodes := make([]LevelNode, total)
	for _, b := range f.Blocks {
		d := BuildDFG(f, b)
		t.DFG[b.ID] = d
		// Counting sort by level keeps instruction order within a level:
		// next[l] is the next free slot of level l.
		next := make([]int, d.MaxLevel+1)
		for _, l := range d.ASAP {
			next[l]++
		}
		for l, start := 0, 0; l < len(next); l++ {
			next[l], start = start, start+next[l]
		}
		order := nodes[:len(d.ASAP):len(d.ASAP)]
		nodes = nodes[len(d.ASAP):]
		for u, l := range d.ASAP {
			order[next[l]] = LevelNode{Node: int32(u), Level: int32(l), Class: ClassOf(d.Op(u))}
			next[l]++
		}
		t.Levels[b.ID] = order
	}
	t.LiveIO = computeLiveIO(f, t.DFG)
	return t
}

// computeLiveIO derives every block's LiveIO from its DFG.
func computeLiveIO(f *Function, dfgs []*DFG) []LiveIO {
	// usedIn[r] = set of blocks reading register r (instruction operands or
	// terminator condition/return value).
	usedIn := map[RegID]map[BlockID]bool{}
	note := func(o Operand, b BlockID) {
		if o.Kind != OperandReg {
			return
		}
		set := usedIn[o.Reg]
		if set == nil {
			set = map[BlockID]bool{}
			usedIn[o.Reg] = set
		}
		set[b] = true
	}
	var buf []RegID
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			buf = b.Instrs[i].Uses(buf[:0])
			for _, r := range buf {
				note(Reg(r), b.ID)
			}
		}
		switch b.Term.Kind {
		case TermBranch:
			note(b.Term.Cond, b.ID)
		case TermReturn:
			if b.Term.HasVal {
				note(b.Term.Val, b.ID)
			}
		}
	}

	out := make([]LiveIO, len(f.Blocks))
	for _, b := range f.Blocks {
		d := dfgs[b.ID]
		io := LiveIO{In: len(d.ExternalIn)}
		extIn := map[RegID]bool{}
		for _, r := range d.ExternalIn {
			extIn[r] = true
		}
		seen := map[RegID]bool{}
		termUses := map[RegID]bool{}
		if b.Term.Kind == TermBranch && b.Term.Cond.Kind == OperandReg {
			termUses[b.Term.Cond.Reg] = true
		}
		if b.Term.Kind == TermReturn && b.Term.HasVal && b.Term.Val.Kind == OperandReg {
			termUses[b.Term.Val.Reg] = true
		}
		for _, r := range d.Defined {
			if seen[r] {
				continue
			}
			seen[r] = true
			live := termUses[r] || extIn[r] // terminator use or loop-carried
			if !live {
				for blockID := range usedIn[r] {
					if blockID != b.ID {
						live = true
						break
					}
				}
			}
			if live {
				io.Out++
			}
		}
		out[b.ID] = io
	}
	return out
}
