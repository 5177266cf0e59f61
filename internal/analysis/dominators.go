// Package analysis implements step 3 of the partitioning methodology: the
// combination of static analysis (weighted operation counts inside each
// basic block) and dynamic analysis (basic-block execution frequencies from
// profiling) that identifies and orders the application's kernels —
// eq. (1) of the paper, total_weight = exec_freq × bb_weight.
package analysis

import "hybridpart/internal/ir"

// Dominators holds the immediate-dominator tree of a function's CFG,
// computed with the Cooper–Harvey–Kennedy iterative algorithm.
type Dominators struct {
	fn *ir.Function
	// idom[b] is the immediate dominator of block b (idom[entry] = entry);
	// NoBlock for unreachable blocks.
	idom []ir.BlockID
	// rpo numbers blocks in reverse postorder; -1 for unreachable.
	rpoIndex []int
}

// ComputeDominators builds the dominator tree of f. Edge lists are
// recomputed first so callers need not keep them current.
func ComputeDominators(f *ir.Function) *Dominators {
	f.RecomputeEdges()
	n := len(f.Blocks)
	d := &Dominators{
		fn:       f,
		idom:     make([]ir.BlockID, n),
		rpoIndex: make([]int, n),
	}
	for i := range d.idom {
		d.idom[i] = ir.NoBlock
		d.rpoIndex[i] = -1
	}

	// Postorder DFS from the entry.
	var post []ir.BlockID
	seen := make([]bool, n)
	var dfs func(id ir.BlockID)
	dfs = func(id ir.BlockID) {
		if seen[id] {
			return
		}
		seen[id] = true
		for _, s := range f.Blocks[id].Succs {
			dfs(s)
		}
		post = append(post, id)
	}
	dfs(f.Entry)
	// Reverse postorder and index.
	rpo := make([]ir.BlockID, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	for i, b := range rpo {
		d.rpoIndex[b] = i
	}

	intersect := func(a, b ir.BlockID) ir.BlockID {
		for a != b {
			for d.rpoIndex[a] > d.rpoIndex[b] {
				a = d.idom[a]
			}
			for d.rpoIndex[b] > d.rpoIndex[a] {
				b = d.idom[b]
			}
		}
		return a
	}

	d.idom[f.Entry] = f.Entry
	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == f.Entry {
				continue
			}
			var newIdom ir.BlockID = ir.NoBlock
			for _, p := range f.Blocks[b].Preds {
				if d.idom[p] == ir.NoBlock {
					continue // unprocessed or unreachable
				}
				if newIdom == ir.NoBlock {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != ir.NoBlock && d.idom[b] != newIdom {
				d.idom[b] = newIdom
				changed = true
			}
		}
	}
	return d
}

// Dominates reports whether a dominates b (reflexively).
func (d *Dominators) Dominates(a, b ir.BlockID) bool {
	if d.idom[b] == ir.NoBlock {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := d.idom[b]
		if next == b {
			return false // reached entry
		}
		b = next
	}
}

// Reachable reports whether b is reachable from the entry.
func (d *Dominators) Reachable(b ir.BlockID) bool { return d.idom[b] != ir.NoBlock }
