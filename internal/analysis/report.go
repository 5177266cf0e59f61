package analysis

import (
	"fmt"
	"sort"
	"strings"

	"hybridpart/internal/ir"
)

// Weights assigns the static complexity weight of each operation class —
// "the delay allocated to each basic operator". The paper uses ALU = 1 and
// MUL = 2 for the benchmark kernels and counts memory accesses as basic
// operations; the remaining entries cover constructs absent from the
// published DFGs.
type Weights struct {
	ALU int64
	Mul int64
	Div int64
	Mem int64
	// Call weighs un-inlined call instructions; the standard flow inlines
	// everything first, so this is normally unused.
	Call int64
}

// DefaultWeights returns the paper's weight assignment.
func DefaultWeights() Weights {
	return Weights{ALU: 1, Mul: 2, Div: 4, Mem: 1, Call: 0}
}

// Of returns the weight of a single operation.
func (w Weights) Of(op ir.Op) int64 {
	switch ir.ClassOf(op) {
	case ir.ClassMul:
		return w.Mul
	case ir.ClassDiv:
		return w.Div
	case ir.ClassMem:
		return w.Mem
	case ir.ClassCall:
		return w.Call
	default:
		return w.ALU
	}
}

// BlockWeight computes the static weight of one basic block (bb_weight in
// eq. 1): the weighted sum of its operations.
func BlockWeight(b *ir.Block, w Weights) int64 {
	var sum int64
	for i := range b.Instrs {
		sum += w.Of(b.Instrs[i].Op)
	}
	return sum
}

// BlockInfo aggregates the analysis results for one basic block.
type BlockInfo struct {
	ID   ir.BlockID
	Name string

	// Freq is the dynamic execution count of the block (exec_freq).
	Freq uint64
	// OpWeight is the static weighted operation count (bb_weight).
	OpWeight int64
	// TotalWeight = Freq × OpWeight (eq. 1).
	TotalWeight int64

	// Ops, MulOps, MemOps count the block's instructions by class.
	Ops    int
	MulOps int
	MemOps int

	// InLoop and Depth describe the block's loop context; kernels must sit
	// inside loops.
	InLoop bool
	Depth  int
}

// Report is the full analysis result for one function: the input the
// partitioning engine consumes.
type Report struct {
	Func   string
	Blocks []BlockInfo
	// Kernels lists the critical basic blocks — blocks inside loops with
	// nonzero total weight — in decreasing order of total weight.
	Kernels []ir.BlockID
}

// Block returns the info record for block id (nil if out of range).
func (r *Report) Block(id ir.BlockID) *BlockInfo {
	if int(id) >= len(r.Blocks) {
		return nil
	}
	return &r.Blocks[id]
}

// TopKernels returns up to n kernels in analysis order.
func (r *Report) TopKernels(n int) []ir.BlockID {
	if n > len(r.Kernels) {
		n = len(r.Kernels)
	}
	return r.Kernels[:n]
}

// Analyze runs the full analysis step on f: static weights per block, the
// dynamic frequencies in freq (indexed by BlockID; missing entries count as
// zero), loop detection, eq. 1 totals and kernel ordering. It recomputes
// f's edge lists; callers analyzing one function many times build its
// Structure once instead.
func Analyze(f *ir.Function, freq []uint64, w Weights) *Report {
	return NewStructure(f).Analyze(freq, w)
}

// Structure is the profile-independent half of the analysis step: the
// function's natural loops, found from its dominator tree. They depend
// only on the CFG, so a compiled application builds its Structure once and
// every request only weighs its own profile against it. A Structure is
// read-only after NewStructure and safe for concurrent use, provided
// nothing edits the function.
type Structure struct {
	f     *ir.Function
	loops *LoopForest
}

// NewStructure finds f's natural loops. Like ComputeDominators it
// recomputes f's edge lists in place first, so build it before f is
// shared.
func NewStructure(f *ir.Function) *Structure {
	return &Structure{f: f, loops: FindLoops(f, ComputeDominators(f))}
}

// Analyze weighs the dynamic frequencies in freq (indexed by BlockID;
// missing entries count as zero) against the structure: static weights per
// block, eq. 1 totals and kernel ordering. The result equals the
// package-level Analyze on the same function.
func (s *Structure) Analyze(freq []uint64, w Weights) *Report {
	f := s.f
	r := &Report{Func: f.Name, Blocks: make([]BlockInfo, 0, len(f.Blocks))}
	for _, b := range f.Blocks {
		info := BlockInfo{
			ID:       b.ID,
			Name:     b.Name,
			OpWeight: BlockWeight(b, w),
			InLoop:   s.loops.InAnyLoop(b.ID),
			Depth:    s.loops.Depth[b.ID],
			Ops:      len(b.Instrs),
		}
		for i := range b.Instrs {
			switch ir.ClassOf(b.Instrs[i].Op) {
			case ir.ClassMul:
				info.MulOps++
			case ir.ClassMem:
				info.MemOps++
			}
		}
		if int(b.ID) < len(freq) {
			info.Freq = freq[b.ID]
		}
		info.TotalWeight = int64(info.Freq) * info.OpWeight
		r.Blocks = append(r.Blocks, info)
	}
	r.Kernels = OrderKernels(r, OrderByTotalWeight)
	return r
}

// KernelOrder selects the ordering strategy for candidate kernels. The
// paper orders by eq. 1 total weight; the alternatives exist for the
// ablation benches.
type KernelOrder uint8

// Kernel ordering strategies.
const (
	// OrderByTotalWeight is the paper's ordering: exec_freq × bb_weight.
	OrderByTotalWeight KernelOrder = iota
	// OrderByFreq orders by raw execution frequency.
	OrderByFreq
	// OrderByOpWeight orders by static weight only.
	OrderByOpWeight
)

func (k KernelOrder) String() string {
	switch k {
	case OrderByTotalWeight:
		return "total-weight"
	case OrderByFreq:
		return "frequency"
	case OrderByOpWeight:
		return "op-weight"
	}
	return fmt.Sprintf("order(%d)", uint8(k))
}

// OrderKernels extracts and orders the candidate kernels of r: blocks inside
// loops whose ordering key is positive, sorted descending (ties by block ID
// for determinism).
func OrderKernels(r *Report, order KernelOrder) []ir.BlockID {
	key := func(b *BlockInfo) int64 {
		switch order {
		case OrderByFreq:
			return int64(b.Freq)
		case OrderByOpWeight:
			return b.OpWeight
		default:
			return b.TotalWeight
		}
	}
	var ids []ir.BlockID
	for i := range r.Blocks {
		b := &r.Blocks[i]
		if b.InLoop && key(b) > 0 && b.TotalWeight > 0 {
			ids = append(ids, b.ID)
		}
	}
	sort.SliceStable(ids, func(i, j int) bool {
		ki, kj := key(r.Block(ids[i])), key(r.Block(ids[j]))
		if ki != kj {
			return ki > kj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// FormatTable renders the top-n kernel rows in the layout of the paper's
// Table 1: block number, execution frequency, operation weight, total
// weight, in decreasing order of total weight.
func (r *Report) FormatTable(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-15s %-17s %-12s\n", "Basic", "Basic Block", "Operations", "Total")
	fmt.Fprintf(&sb, "%-10s %-15s %-17s %-12s\n", "Block no.", "exec. freq.", "weight", "weight")
	for _, id := range r.TopKernels(n) {
		b := r.Block(id)
		fmt.Fprintf(&sb, "%-10d %-15d %-17d %-12d\n", b.ID, b.Freq, b.OpWeight, b.TotalWeight)
	}
	return sb.String()
}
