// Package interp executes ir programs with exact 32-bit integer semantics
// and records per-basic-block execution counts. It plays the role of the
// paper's dynamic-analysis step: where the authors instrument the C source
// with Lex-inserted counters, compile and run it on representative input
// vectors, we interpret the lowered CDFG directly — producing the same
// artifact, the execution frequency of every basic block.
package interp

import (
	"context"
	"fmt"

	"hybridpart/internal/ir"
)

// EdgeKey packs a control-flow edge (from → to) into one map key.
type EdgeKey uint64

// Edge builds the key for the transition from block u to block v.
func Edge(u, v ir.BlockID) EdgeKey {
	return EdgeKey(uint64(uint32(u))<<32 | uint64(uint32(v)))
}

// From returns the edge's source block.
func (e EdgeKey) From() ir.BlockID { return ir.BlockID(uint32(e >> 32)) }

// To returns the edge's destination block.
func (e EdgeKey) To() ir.BlockID { return ir.BlockID(uint32(e)) }

// Profile records dynamic-analysis results.
type Profile struct {
	// Counts maps function name to per-block execution counts, indexed by
	// BlockID.
	Counts map[string][]uint64
	// Edges maps function name to taken control-flow transition counts;
	// the fine-grain reconfiguration model charges partition crossings on
	// these edges.
	Edges map[string]map[EdgeKey]uint64
	// Instrs is the total number of IR instructions executed.
	Instrs uint64
}

// EdgeCount returns the taken count of edge u→v in function fn.
func (p *Profile) EdgeCount(fn string, u, v ir.BlockID) uint64 {
	return p.Edges[fn][Edge(u, v)]
}

// BlockCount returns the execution count of block id of function fn.
func (p *Profile) BlockCount(fn string, id ir.BlockID) uint64 {
	c := p.Counts[fn]
	if int(id) >= len(c) {
		return 0
	}
	return c[id]
}

// Trap is a runtime error with source context.
type Trap struct {
	Func string
	Pos  int // source line
	Msg  string
}

func (t *Trap) Error() string {
	return fmt.Sprintf("interp: trap in %s (line %d): %s", t.Func, t.Pos, t.Msg)
}

// Arg is an argument to Machine.Run: a scalar or an array binding. Array
// arguments alias the caller's slice, so results written by the program are
// visible to the host after Run returns.
type Arg struct {
	Scalar  int32
	Arr     []int32
	IsArray bool
}

// Int returns a scalar argument.
func Int(v int32) Arg { return Arg{Scalar: v} }

// Array returns an array argument aliasing s.
func Array(s []int32) Arg { return Arg{Arr: s, IsArray: true} }

// Machine executes one program. Globals persist across Run calls.
type Machine struct {
	prog    *ir.Program
	globals [][]int32
	profile *Profile

	// MaxSteps bounds the number of executed instructions (0 = default of
	// 2^32). The bound makes runaway loops fail deterministically in tests.
	MaxSteps uint64
	steps    uint64
	// limit is the step count at which the instruction loop leaves its fast
	// path: MaxSteps, or the next context poll when it comes sooner.
	limit uint64
	ctx   context.Context

	// MaxDepth bounds the call stack (default 256).
	MaxDepth int
	depth    int
}

// New creates a machine for prog with global arrays allocated and
// initialized.
func New(prog *ir.Program) *Machine {
	m := &Machine{prog: prog, MaxSteps: 1 << 32, MaxDepth: 256}
	m.globals = make([][]int32, len(prog.Globals))
	for i, g := range prog.Globals {
		m.globals[i] = make([]int32, g.Len)
		copy(m.globals[i], g.Init)
	}
	return m
}

// ResetGlobals restores every global array to its declared initial value.
func (m *Machine) ResetGlobals() {
	for i, g := range m.prog.Globals {
		buf := m.globals[i]
		for j := range buf {
			buf[j] = 0
		}
		copy(buf, g.Init)
	}
}

// Global returns the live storage of the named global array (nil if absent).
func (m *Machine) Global(name string) []int32 {
	for i, g := range m.prog.Globals {
		if g.Name == name {
			return m.globals[i]
		}
	}
	return nil
}

// EnableProfile attaches (and returns) a fresh profile; subsequent Run calls
// accumulate into it.
func (m *Machine) EnableProfile() *Profile {
	m.profile = &Profile{
		Counts: map[string][]uint64{},
		Edges:  map[string]map[EdgeKey]uint64{},
	}
	return m.profile
}

// Profile returns the attached profile, or nil.
func (m *Machine) Profile() *Profile { return m.profile }

// Steps returns the number of instructions executed so far.
func (m *Machine) Steps() uint64 { return m.steps }

// Run executes the named function with the given arguments and returns its
// result (0 for void functions).
func (m *Machine) Run(fn string, args ...Arg) (int32, error) {
	return m.RunContext(context.Background(), fn, args...)
}

// pollSteps is how many steps the interpreter runs between two polls of
// the RunContext context.
const pollSteps = 1 << 16

// RunContext is Run abandoned once ctx is done: it returns ctx's error
// within pollSteps executed steps of the cancellation.
func (m *Machine) RunContext(ctx context.Context, fn string, args ...Arg) (int32, error) {
	m.ctx = ctx
	m.limit = m.MaxSteps
	if ctx.Done() != nil {
		m.limit = min(m.MaxSteps, m.steps+pollSteps)
	}
	f := m.prog.Func(fn)
	if f == nil {
		return 0, fmt.Errorf("interp: function %q not found", fn)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp: %s takes %d arguments, got %d", fn, len(f.Params), len(args))
	}
	frame, err := m.newFrame(f, args)
	if err != nil {
		return 0, err
	}
	return m.exec(f, frame)
}

// pastLimit is the instruction loop's slow path, taken once the step count
// passes limit: it traps past MaxSteps, returns the context's error once the
// context is done, and otherwise schedules the next poll.
func (m *Machine) pastLimit(fn string, pos int) error {
	if m.steps > m.MaxSteps {
		return &Trap{Func: fn, Pos: pos, Msg: "step limit exceeded"}
	}
	if err := m.ctx.Err(); err != nil {
		return err
	}
	m.limit = min(m.MaxSteps, m.steps+pollSteps)
	return nil
}

type frame struct {
	regs   []int32
	arrays [][]int32
}

func (m *Machine) newFrame(f *ir.Function, args []Arg) (*frame, error) {
	fr := &frame{
		regs:   make([]int32, f.NumRegs),
		arrays: make([][]int32, len(f.Arrays)),
	}
	// Local arrays own storage; parameter slots stay nil until bound.
	for i, a := range f.Arrays {
		if !a.IsParam {
			fr.arrays[i] = make([]int32, a.Len)
			copy(fr.arrays[i], a.Init)
		}
	}
	for i, p := range f.Params {
		a := args[i]
		if p.IsArray != a.IsArray {
			return nil, fmt.Errorf("interp: %s: argument %d array/scalar mismatch", f.Name, i+1)
		}
		if p.IsArray {
			fr.arrays[p.Arr] = a.Arr
		} else {
			fr.regs[p.Reg] = a.Scalar
		}
	}
	return fr, nil
}

func (m *Machine) arrayStorage(fr *frame, id ir.ArrID) ([]int32, bool) {
	if ir.IsGlobalArr(id) {
		i := ir.GlobalIndex(id)
		if i < 0 || i >= len(m.globals) {
			return nil, false
		}
		return m.globals[i], true
	}
	if id >= 0 && int(id) < len(fr.arrays) {
		return fr.arrays[id], true
	}
	return nil, false
}

func (m *Machine) exec(f *ir.Function, fr *frame) (int32, error) {
	m.depth++
	defer func() { m.depth-- }()
	maxDepth := m.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 256
	}
	if m.depth > maxDepth {
		return 0, &Trap{Func: f.Name, Msg: "call depth limit exceeded"}
	}

	var counts []uint64
	var edges map[EdgeKey]uint64
	if m.profile != nil {
		counts = m.profile.Counts[f.Name]
		if len(counts) < len(f.Blocks) {
			grown := make([]uint64, len(f.Blocks))
			copy(grown, counts)
			counts = grown
			m.profile.Counts[f.Name] = counts
		}
		edges = m.profile.Edges[f.Name]
		if edges == nil {
			edges = map[EdgeKey]uint64{}
			m.profile.Edges[f.Name] = edges
		}
	}

	eval := func(o ir.Operand) int32 {
		if o.Kind == ir.OperandImm {
			return o.Imm
		}
		return fr.regs[o.Reg]
	}

	b := f.Block(f.Entry)
	for {
		// A block entry charges one step even when the block is empty, so
		// instruction-free infinite loops still hit the step limit.
		m.steps++
		if m.steps > m.limit {
			if err := m.pastLimit(f.Name, 0); err != nil {
				return 0, err
			}
		}
		if counts != nil {
			counts[b.ID]++
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			m.steps++
			if m.steps > m.limit {
				if err := m.pastLimit(f.Name, in.Pos); err != nil {
					return 0, err
				}
			}
			if m.profile != nil {
				m.profile.Instrs++
			}
			switch in.Op {
			case ir.OpConst:
				fr.regs[in.Dst] = in.A.Imm
			case ir.OpCopy:
				fr.regs[in.Dst] = eval(in.A)
			case ir.OpAdd:
				fr.regs[in.Dst] = eval(in.A) + eval(in.B)
			case ir.OpSub:
				fr.regs[in.Dst] = eval(in.A) - eval(in.B)
			case ir.OpNeg:
				fr.regs[in.Dst] = -eval(in.A)
			case ir.OpMul:
				fr.regs[in.Dst] = eval(in.A) * eval(in.B)
			case ir.OpDiv:
				x, y := eval(in.A), eval(in.B)
				if y == 0 {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "division by zero"}
				}
				if x == -1<<31 && y == -1 {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "division overflow"}
				}
				fr.regs[in.Dst] = x / y
			case ir.OpRem:
				x, y := eval(in.A), eval(in.B)
				if y == 0 {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "remainder by zero"}
				}
				if x == -1<<31 && y == -1 {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "remainder overflow"}
				}
				fr.regs[in.Dst] = x % y
			case ir.OpAnd:
				fr.regs[in.Dst] = eval(in.A) & eval(in.B)
			case ir.OpOr:
				fr.regs[in.Dst] = eval(in.A) | eval(in.B)
			case ir.OpXor:
				fr.regs[in.Dst] = eval(in.A) ^ eval(in.B)
			case ir.OpNot:
				fr.regs[in.Dst] = ^eval(in.A)
			case ir.OpShl:
				fr.regs[in.Dst] = eval(in.A) << (uint32(eval(in.B)) & 31)
			case ir.OpShr:
				fr.regs[in.Dst] = eval(in.A) >> (uint32(eval(in.B)) & 31)
			case ir.OpEq:
				fr.regs[in.Dst] = b2i(eval(in.A) == eval(in.B))
			case ir.OpNe:
				fr.regs[in.Dst] = b2i(eval(in.A) != eval(in.B))
			case ir.OpLt:
				fr.regs[in.Dst] = b2i(eval(in.A) < eval(in.B))
			case ir.OpLe:
				fr.regs[in.Dst] = b2i(eval(in.A) <= eval(in.B))
			case ir.OpGt:
				fr.regs[in.Dst] = b2i(eval(in.A) > eval(in.B))
			case ir.OpGe:
				fr.regs[in.Dst] = b2i(eval(in.A) >= eval(in.B))
			case ir.OpLNot:
				fr.regs[in.Dst] = b2i(eval(in.A) == 0)
			case ir.OpLoad:
				arr, ok := m.arrayStorage(fr, in.Arr)
				if !ok {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "unresolved array"}
				}
				idx := eval(in.A)
				if idx < 0 || int(idx) >= len(arr) {
					return 0, &Trap{Func: f.Name, Pos: in.Pos,
						Msg: fmt.Sprintf("load index %d out of range [0,%d)", idx, len(arr))}
				}
				fr.regs[in.Dst] = arr[idx]
			case ir.OpStore:
				arr, ok := m.arrayStorage(fr, in.Arr)
				if !ok {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "unresolved array"}
				}
				idx := eval(in.A)
				if idx < 0 || int(idx) >= len(arr) {
					return 0, &Trap{Func: f.Name, Pos: in.Pos,
						Msg: fmt.Sprintf("store index %d out of range [0,%d)", idx, len(arr))}
				}
				arr[idx] = eval(in.B)
			case ir.OpCall:
				callee := m.prog.Func(in.Callee)
				if callee == nil {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "call to undefined " + in.Callee}
				}
				args := make([]Arg, 0, len(callee.Params))
				si, ai := 0, 0
				for _, p := range callee.Params {
					if p.IsArray {
						store, ok := m.arrayStorage(fr, in.ArrArgs[ai])
						if !ok {
							return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "unresolved array argument"}
						}
						args = append(args, Array(store))
						ai++
					} else {
						args = append(args, Int(eval(in.Args[si])))
						si++
					}
				}
				sub, err := m.newFrame(callee, args)
				if err != nil {
					return 0, err
				}
				ret, err := m.exec(callee, sub)
				if err != nil {
					return 0, err
				}
				if in.CallHasDst {
					fr.regs[in.Dst] = ret
				}
			default:
				return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "invalid opcode"}
			}
		}
		switch b.Term.Kind {
		case ir.TermJump:
			if edges != nil {
				edges[Edge(b.ID, b.Term.Then)]++
			}
			b = f.Block(b.Term.Then)
		case ir.TermBranch:
			next := b.Term.Else
			if eval(b.Term.Cond) != 0 {
				next = b.Term.Then
			}
			if edges != nil {
				edges[Edge(b.ID, next)]++
			}
			b = f.Block(next)
		case ir.TermReturn:
			if b.Term.HasVal {
				return eval(b.Term.Val), nil
			}
			return 0, nil
		default:
			return 0, &Trap{Func: f.Name, Msg: "unterminated block"}
		}
	}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
