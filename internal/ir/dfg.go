package ir

// DFG is the data-flow graph of one basic block: one node per instruction,
// with edges for register def-use chains and conservative memory-order
// dependences (same-array store→load, load→store, store→store) plus call
// barriers. This is the structure both mappers consume.
type DFG struct {
	Fn    *Function
	Block *Block

	// Succs/Preds are adjacency lists over instruction indices.
	Succs [][]int
	Preds [][]int

	// ASAP holds the 1-based As-Soon-As-Possible level of every node: all
	// predecessors of a node sit at strictly smaller levels, so nodes sharing
	// a level are mutually independent and may execute in parallel (the
	// property the paper's fine-grain mapper exploits).
	ASAP []int
	// MaxLevel is the maximum ASAP level (the DFG's depth); zero for an
	// empty block.
	MaxLevel int

	// ExternalIn lists registers read by the block before any local
	// definition: the block's scalar live-in set.
	ExternalIn []RegID
	// Defined lists registers written by the block, in definition order.
	Defined []RegID
}

// BuildDFG constructs the data-flow graph of block b of function f.
func BuildDFG(f *Function, b *Block) *DFG {
	n := len(b.Instrs)
	d := &DFG{
		Fn:    f,
		Block: b,
		Succs: make([][]int, n),
		Preds: make([][]int, n),
	}

	lastDef := map[RegID]int{}     // reg -> node index of most recent def
	lastStore := map[ArrID]int{}   // array -> most recent store
	lastLoads := map[ArrID][]int{} // array -> loads since the last store
	lastCall := -1
	externalSeen := map[RegID]bool{}

	addEdge := func(from, to int) {
		if from == to {
			return
		}
		for _, s := range d.Succs[from] {
			if s == to {
				return
			}
		}
		d.Succs[from] = append(d.Succs[from], to)
		d.Preds[to] = append(d.Preds[to], from)
	}

	var useBuf []RegID
	for i := range b.Instrs {
		in := &b.Instrs[i]

		// Register flow dependences.
		useBuf = in.Uses(useBuf[:0])
		for _, r := range useBuf {
			if def, ok := lastDef[r]; ok {
				addEdge(def, i)
			} else if !externalSeen[r] {
				externalSeen[r] = true
				d.ExternalIn = append(d.ExternalIn, r)
			}
		}

		// Memory-order dependences.
		switch in.Op {
		case OpLoad:
			if s, ok := lastStore[in.Arr]; ok {
				addEdge(s, i) // RAW
			}
			if lastCall >= 0 {
				addEdge(lastCall, i)
			}
			lastLoads[in.Arr] = append(lastLoads[in.Arr], i)
		case OpStore:
			if s, ok := lastStore[in.Arr]; ok {
				addEdge(s, i) // WAW
			}
			for _, l := range lastLoads[in.Arr] {
				addEdge(l, i) // WAR
			}
			if lastCall >= 0 {
				addEdge(lastCall, i)
			}
			lastStore[in.Arr] = i
			lastLoads[in.Arr] = nil
		case OpCall:
			// Calls may touch any array (globals or by-reference params):
			// order them against every outstanding memory op and prior call.
			for _, s := range lastStore {
				addEdge(s, i)
			}
			for _, ls := range lastLoads {
				for _, l := range ls {
					addEdge(l, i)
				}
			}
			if lastCall >= 0 {
				addEdge(lastCall, i)
			}
			lastCall = i
			// Later memory ops order against the call (handled below), so
			// the per-array history can be reset.
			lastStore = map[ArrID]int{}
			lastLoads = map[ArrID][]int{}
		}
		if lastCall >= 0 && (in.Op == OpLoad || in.Op == OpStore) {
			addEdge(lastCall, i)
		}

		if in.HasDst() {
			lastDef[in.Dst] = i
			d.Defined = append(d.Defined, in.Dst)
		}
	}

	d.computeLevels()
	return d
}

func (d *DFG) computeLevels() {
	n := len(d.Succs)
	d.ASAP = make([]int, n)
	if n == 0 {
		d.MaxLevel = 0
		return
	}
	order := d.TopoOrder()
	// ASAP: longest path from sources, unit node delay, 1-based.
	for _, u := range order {
		lvl := 1
		for _, p := range d.Preds[u] {
			if d.ASAP[p]+1 > lvl {
				lvl = d.ASAP[p] + 1
			}
		}
		d.ASAP[u] = lvl
		if lvl > d.MaxLevel {
			d.MaxLevel = lvl
		}
	}
}

// TopoOrder returns the instruction indices in a topological order of the
// DFG. Instruction order is already topological (edges only point forward),
// so this is the identity permutation; it exists to make the invariant
// explicit at call sites.
func (d *DFG) TopoOrder() []int {
	order := make([]int, len(d.Succs))
	for i := range order {
		order[i] = i
	}
	return order
}

// NodesAtLevel returns the indices of the nodes whose ASAP level equals lvl,
// in instruction order.
func (d *DFG) NodesAtLevel(lvl int) []int {
	var out []int
	for i, l := range d.ASAP {
		if l == lvl {
			out = append(out, i)
		}
	}
	return out
}

// NumNodes returns the node count.
func (d *DFG) NumNodes() int { return len(d.Succs) }

// Op returns the opcode of node i.
func (d *DFG) Op(i int) Op { return d.Block.Instrs[i].Op }
