// Package coarsegrain implements the mapping methodology for the CGC-based
// coarse-grain data-path (the authors' FPL'04 companion work the paper
// reuses in section 3.3): (a) list-based scheduling of DFG operations with
// critical-path priorities and (b) binding onto the CGCs. A CGC is an n×m
// array of nodes, each holding a multiplier and an ALU with one active per
// cycle; the steering interconnect lets data flow from row to row so a
// configured template — e.g. a multiply-accumulate chain — completes with
// unit execution delay, one T_CGC cycle.
//
// Memory model: the data-path owns a register bank. Arrays that fit in the
// bank (platform.CoarseGrain.RegBankWords) are bank-resident while the
// kernel runs, so their loads/stores are register-file accesses routed by
// the interconnect — they consume no issue slot and no extra cycle. Larger
// arrays stream through the shared-memory ports (MemPorts per cycle, one
// cycle each).
package coarsegrain

import (
	"errors"
	"fmt"
	"sort"

	"hybridpart/internal/ir"
	"hybridpart/internal/platform"
)

// ErrUnmappable reports a DFG the CGC data-path cannot execute (divisions or
// residual calls); the partitioning engine leaves such kernels on the FPGA.
var ErrUnmappable = errors.New("coarsegrain: DFG contains operations without a CGC realization")

// ArrLenFunc resolves the element count of an array reference; ok=false
// means unknown (treated as too large for the register bank). Use
// ArrLenOf to build one from a program and function.
type ArrLenFunc func(id ir.ArrID) (int32, bool)

// ArrLenOf returns an ArrLenFunc resolving against f's locals and prog's
// globals. By-reference parameter arrays report unknown size.
func ArrLenOf(prog *ir.Program, f *ir.Function) ArrLenFunc {
	return func(id ir.ArrID) (int32, bool) {
		decl, ok := prog.ArrayByRef(f, id)
		if !ok || decl.IsParam {
			return 0, false
		}
		return decl.Len, true
	}
}

// Slot places one compute operation: DFG node u executes on CGC cgc at
// (row, col) during the given cycle.
type Slot struct {
	Node  int
	Cycle int64
	CGC   int
	Row   int
	Col   int
}

// MemSlot places one shared-memory operation on a port.
type MemSlot struct {
	Node  int
	Cycle int64
	Port  int
}

// RoutedSlot records a register-bank access: it costs no resources; Avail
// is the cycle from which its value is usable.
type RoutedSlot struct {
	Node  int
	Avail int64
}

// Schedule is the scheduled-and-bound form of one DFG on the data-path.
type Schedule struct {
	DFG     *ir.DFG
	Compute []Slot
	Memory  []MemSlot
	Routed  []RoutedSlot
	// Latency is the block's execution time in T_CGC cycles (the overall
	// latency of the DFG after binding, as in [6]).
	Latency int64
}

// MapDFG schedules and binds d onto the coarse-grain data-path cg. arrLen
// resolves array sizes for the register-bank model; nil sends every memory
// operation through the shared-memory ports.
func MapDFG(d *ir.DFG, cg platform.CoarseGrain, arrLen ArrLenFunc) (*Schedule, error) {
	n := d.NumNodes()
	s := &Schedule{DFG: d}
	if n == 0 {
		s.Latency = 1 // control-only block: one cycle of sequencing
		return s, nil
	}

	isMem := make([]bool, n)
	isRouted := make([]bool, n)
	for i := 0; i < n; i++ {
		switch ir.ClassOf(d.Op(i)) {
		case ir.ClassDiv, ir.ClassCall:
			return nil, fmt.Errorf("%w: node %d is %s", ErrUnmappable, i, d.Op(i))
		case ir.ClassMem:
			isMem[i] = true
			if arrLen != nil {
				if ln, ok := arrLen(d.Block.Instrs[i].Arr); ok && int(ln) <= cg.RegBankWords {
					isRouted[i] = true
				}
			}
		}
	}

	// Priority: height — the longest path from the node to any sink.
	height := make([]int, n)
	for u := n - 1; u >= 0; u-- {
		h := 1
		for _, v := range d.Succs[u] {
			if height[v]+1 > h {
				h = height[v] + 1
			}
		}
		height[u] = h
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if height[order[i]] != height[order[j]] {
			return height[order[i]] > height[order[j]]
		}
		return order[i] < order[j]
	})

	scheduled := make([]bool, n)
	avail := make([]int64, n) // cycle from which the result is usable
	remaining := n

	// resolveRouted schedules register-bank accesses as soon as all their
	// predecessors are scheduled; they are wires with zero cost. A single
	// forward pass suffices because instruction order is topological.
	resolveRouted := func() {
		for u := 0; u < n; u++ {
			if scheduled[u] || !isRouted[u] {
				continue
			}
			ready := true
			var a int64
			for _, p := range d.Preds[u] {
				if !scheduled[p] {
					ready = false
					break
				}
				if avail[p] > a {
					a = avail[p]
				}
			}
			if !ready {
				continue
			}
			scheduled[u] = true
			avail[u] = a
			s.Routed = append(s.Routed, RoutedSlot{Node: u, Avail: a})
			remaining--
		}
	}

	var cycle int64
	for remaining > 0 {
		resolveRouted()
		if remaining == 0 {
			break
		}

		// Fill each CGC template: Rows levels of up to Cols operations, with
		// row r+1 allowed to consume row r results of the same template
		// within the same cycle (steering network, unit execution delay).
		for cgcIdx := 0; cgcIdx < cg.NumCGCs; cgcIdx++ {
			placed := map[int]int{} // node -> row within this template
			for row := 1; row <= cg.Rows; row++ {
				col := 0
				for _, u := range order {
					if col >= cg.Cols {
						break
					}
					if scheduled[u] || isMem[u] {
						continue
					}
					feasible := true
					for _, p := range d.Preds[u] {
						if scheduled[p] && avail[p] <= cycle {
							continue // registered or routed, available now
						}
						if pr, inTemplate := placed[p]; inTemplate && pr < row {
							continue // chained within this template
						}
						feasible = false
						break
					}
					if !feasible {
						continue
					}
					scheduled[u] = true
					avail[u] = cycle + 1
					placed[u] = row
					s.Compute = append(s.Compute, Slot{Node: u, Cycle: cycle, CGC: cgcIdx, Row: row, Col: col})
					col++
					remaining--
				}
			}
			// Newly finished compute may enable routed loads needed by other
			// templates next cycle; resolution happens at the next loop top.
		}

		// Shared-memory ports: operands must be available this cycle.
		port := 0
		for _, u := range order {
			if port >= cg.MemPorts {
				break
			}
			if scheduled[u] || !isMem[u] || isRouted[u] {
				continue
			}
			ready := true
			for _, p := range d.Preds[u] {
				if !scheduled[p] || avail[p] > cycle {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			scheduled[u] = true
			avail[u] = cycle + 1
			s.Memory = append(s.Memory, MemSlot{Node: u, Cycle: cycle, Port: port})
			port++
			remaining--
		}

		cycle++
		if cycle > int64(n)*4+64 {
			return nil, fmt.Errorf("coarsegrain: scheduler failed to converge on %d nodes", n)
		}
	}

	latest := int64(1)
	for u := 0; u < n; u++ {
		if avail[u] > latest {
			latest = avail[u]
		}
	}
	s.Latency = latest
	return s, nil
}

// Validate checks schedule legality: every node placed exactly once,
// dependences respected (chaining only within a CGC, row-increasing, same
// cycle; register-bank accesses are free wires), and resource caps never
// exceeded. Used by tests and as an internal sanity check.
func (s *Schedule) Validate(cg platform.CoarseGrain) error {
	d := s.DFG
	n := d.NumNodes()
	avail := make([]int64, n)
	cycleOf := make([]int64, n)
	rowOf := make([]int, n)
	cgcOf := make([]int, n)
	kind := make([]byte, n) // 0 unseen, 'c' compute, 'm' memory, 'r' routed
	for _, sl := range s.Compute {
		if sl.Node < 0 || sl.Node >= n {
			return fmt.Errorf("coarsegrain: slot names node %d of %d", sl.Node, n)
		}
		if kind[sl.Node] != 0 {
			return fmt.Errorf("coarsegrain: node %d scheduled twice", sl.Node)
		}
		kind[sl.Node] = 'c'
		cycleOf[sl.Node], rowOf[sl.Node], cgcOf[sl.Node] = sl.Cycle, sl.Row, sl.CGC
		avail[sl.Node] = sl.Cycle + 1
		if sl.Row < 1 || sl.Row > cg.Rows || sl.Col < 0 || sl.Col >= cg.Cols || sl.CGC < 0 || sl.CGC >= cg.NumCGCs {
			return fmt.Errorf("coarsegrain: slot out of bounds: %+v", sl)
		}
	}
	for _, sl := range s.Memory {
		if sl.Node < 0 || sl.Node >= n {
			return fmt.Errorf("coarsegrain: memory slot names node %d of %d", sl.Node, n)
		}
		if kind[sl.Node] != 0 {
			return fmt.Errorf("coarsegrain: node %d scheduled twice", sl.Node)
		}
		kind[sl.Node] = 'm'
		cycleOf[sl.Node] = sl.Cycle
		avail[sl.Node] = sl.Cycle + 1
		if sl.Port < 0 || sl.Port >= cg.MemPorts {
			return fmt.Errorf("coarsegrain: memory port out of range: %+v", sl)
		}
	}
	for _, sl := range s.Routed {
		if sl.Node < 0 || sl.Node >= n {
			return fmt.Errorf("coarsegrain: routed slot names node %d of %d", sl.Node, n)
		}
		if kind[sl.Node] != 0 {
			return fmt.Errorf("coarsegrain: node %d scheduled twice", sl.Node)
		}
		kind[sl.Node] = 'r'
		avail[sl.Node] = sl.Avail
	}
	for u := 0; u < n; u++ {
		if kind[u] == 0 {
			return fmt.Errorf("coarsegrain: node %d not scheduled", u)
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range d.Succs[u] {
			switch kind[v] {
			case 'r':
				if avail[v] < avail[u] {
					return fmt.Errorf("coarsegrain: routed node %d available before its input %d", v, u)
				}
			case 'm':
				if avail[u] > cycleOf[v] {
					return fmt.Errorf("coarsegrain: memory op %d issued before input %d is ready", v, u)
				}
			case 'c':
				if avail[u] <= cycleOf[v] {
					continue // registered/routed in time
				}
				// Same-cycle execution is only legal as an intra-CGC chain.
				if kind[u] == 'c' && cycleOf[u] == cycleOf[v] && cgcOf[u] == cgcOf[v] && rowOf[u] < rowOf[v] {
					continue
				}
				return fmt.Errorf("coarsegrain: dependence violated: %d -> %d", u, v)
			}
		}
	}
	// Resource caps per cycle.
	type key struct {
		cycle int64
		cgc   int
		row   int
	}
	rowUse := map[key]int{}
	for _, sl := range s.Compute {
		k := key{sl.Cycle, sl.CGC, sl.Row}
		rowUse[k]++
		if rowUse[k] > cg.Cols {
			return fmt.Errorf("coarsegrain: row overflow at %+v", k)
		}
	}
	portUse := map[int64]int{}
	for _, sl := range s.Memory {
		portUse[sl.Cycle]++
		if portUse[sl.Cycle] > cg.MemPorts {
			return fmt.Errorf("coarsegrain: memory port overflow at cycle %d", sl.Cycle)
		}
	}
	return nil
}

// LatencyTable holds every block's data-path latency on one coarse-grain
// platform: t_to_coarse(BB) of eq. 3 in T_CGC cycles, or the MapDFG error
// that keeps the block off the data-path. A block's latency depends only on
// its DFG and the platform — not on the constraint, the fine-grain side or
// the moved set — so one table serves every partitioning run, replay and
// energy run of a compiled application on that data-path. A LatencyTable is
// read-only after BuildLatencyTable returns and safe for concurrent use.
type LatencyTable struct {
	// F is the function whose blocks the table covers; Coarse is the
	// data-path they were scheduled on.
	F      *ir.Function
	Coarse platform.CoarseGrain
	lat    []int64
	err    []error
}

// BuildLatencyTable list-schedules every block of tables.F onto cg, resolving
// array sizes against prog for the register-bank model.
func BuildLatencyTable(prog *ir.Program, tables *ir.BlockTables, cg platform.CoarseGrain) *LatencyTable {
	n := len(tables.DFG)
	t := &LatencyTable{F: tables.F, Coarse: cg, lat: make([]int64, n), err: make([]error, n)}
	arrLen := ArrLenOf(prog, tables.F)
	for id, d := range tables.DFG {
		s, err := MapDFG(d, cg, arrLen)
		if err != nil {
			t.err[id] = err
			continue
		}
		t.lat[id] = s.Latency
	}
	return t
}

// Describes reports whether t covers f's blocks scheduled on cg.
func (t *LatencyTable) Describes(f *ir.Function, cg platform.CoarseGrain) bool {
	return t.F == f && t.Coarse == cg
}

// Latency returns block id's data-path latency in T_CGC cycles, or the
// error MapDFG reported for it (wrapping ErrUnmappable for blocks the
// data-path cannot execute).
func (t *LatencyTable) Latency(id ir.BlockID) (int64, error) {
	return t.lat[id], t.err[id]
}
