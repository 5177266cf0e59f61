// Package interp executes ir programs with exact 32-bit integer semantics
// and records per-basic-block execution counts. It plays the role of the
// paper's dynamic-analysis step: where the authors instrument the C source
// with Lex-inserted counters, compile and run it on representative input
// vectors, we interpret the lowered CDFG directly — producing the same
// artifact, the execution frequency of every basic block.
//
// The interpreter does not walk the CDFG itself. On its first call a
// function is decoded into a flat array of register-operand ops (immediates
// become constant registers, array operands become indices into a per-frame
// table) and a block table giving each block's op range and terminator, and
// that decoded form is what runs. A block's header is one compare and one
// add: whenever the step limit cannot fall inside the block, its precomputed
// charge (one step for the entry plus one per instruction) is added at
// entry. Its taken successor edges are counted in two dense slots per block
// that are folded into Profile.Edges when the run returns, and
// Profile.Instrs is derived then too, from the steps and the block entries
// the run added.
//
// Such a block runs on the fast path, from a second op array in which the
// hot adjacent op pairs (add+load, mul+add, load+mul, load+add, add+add),
// taken greedily left to right within a block, are fused: the first op of
// the pair carries a fused code that executes both and skips the second. A
// Branch block whose last op is the compare that writes its condition ends
// the fast path one op early and runs that compare inside the terminator,
// which still writes the condition register. A block that may cross the step
// limit, or that holds a call, runs on the checked path from the plain
// array, one op per instruction, with a plain Branch terminator, so step
// limits and context polls stay exact. A trap in either half of a fused pair
// reports that half's own source line.
package interp

import (
	"context"
	"fmt"
	"slices"

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
//
// Each function runs from its decoded form (see decode), built once per
// Machine on the function's first call. Step accounting is per block: a
// block whose charge (its entry step and instructions) fits under the
// current limit (MaxSteps or the next context poll) is charged in one add
// and runs on the fast path, where a folded compare runs in the Branch
// terminator. Only a block that may cross the limit, or that holds a call
// (whose charge never fits), counts its steps one instruction at a time. A
// step trap therefore fires on the same step and source line as a
// per-instruction count would give, and a trap raised mid-block refunds the
// steps charged for the instructions after it. Nothing in the loop counts
// instructions: when the run returns, on every path, Profile.Instrs gains
// the steps the run added less its block entries, and less the one step
// that pastLimit refused when it stopped the run. Taken edges are counted
// per block in a then slot and an else slot and folded into Profile.Edges
// then too.
type Machine struct {
	prog    *ir.Program
	globals [][]int32
	profile *Profile
	code    map[*ir.Function]*code

	// MaxSteps bounds the number of executed instructions (0 = default of
	// 2^32). The bound makes runaway loops fail deterministically in tests.
	MaxSteps uint64
	steps    uint64
	// limit is the step count at which the block loop leaves its fast path:
	// MaxSteps, or the next context poll when it comes sooner, never above
	// maxLimit.
	limit uint64
	ctx   context.Context
	// stopped records that pastLimit ended the current run, on a step that
	// was charged but neither entered a block nor ran an instruction.
	stopped bool

	// MaxDepth bounds the call stack (default 256).
	MaxDepth int
	depth    int
}

// New creates a machine for prog with global arrays allocated and
// initialized.
func New(prog *ir.Program) *Machine {
	m := &Machine{prog: prog, MaxSteps: 1 << 32, MaxDepth: 256, code: map[*ir.Function]*code{}}
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
	m.limit = min(m.MaxSteps, maxLimit)
	if ctx.Done() != nil {
		m.limit = min(m.limit, m.steps+pollSteps)
	}
	f := m.prog.Func(fn)
	if f == nil {
		return 0, fmt.Errorf("interp: function %q not found", fn)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp: %s takes %d arguments, got %d", fn, len(f.Params), len(args))
	}
	c := m.decode(f)
	regs, arrs := m.newFrame(c)
	for i, p := range f.Params {
		a := args[i]
		if p.IsArray != a.IsArray {
			return 0, fmt.Errorf("interp: %s: argument %d array/scalar mismatch", f.Name, i+1)
		}
		if p.IsArray {
			arrs[p.Arr] = a.Arr
		} else {
			regs[p.Reg] = a.Scalar
		}
	}
	var steps, entries uint64
	if m.profile != nil {
		steps, entries = m.steps, m.profile.entries()
	}
	m.stopped = false
	ret, err := m.exec(c, regs, arrs)
	if m.profile != nil {
		n := m.steps - steps - (m.profile.entries() - entries)
		if m.stopped {
			n--
		}
		m.profile.Instrs += n
	}
	m.foldEdges()
	return ret, err
}

// entries is the number of block entries p has counted.
func (p *Profile) entries() uint64 {
	var n uint64
	for _, counts := range p.Counts {
		for _, c := range counts {
			n += c
		}
	}
	return n
}

// maxLimit caps limit, and callCharge is a call block's charge. Any step
// count below 2^63 plus callCharge lands at or past 2^63, above every limit,
// so a call block always runs on the checked path; a run would need 2^63
// steps before that sum could wrap.
const (
	maxLimit   = 1 << 62
	callCharge = 1 << 63
)

// pastLimit is the instruction loop's slow path, taken once the step count
// passes limit: it traps past MaxSteps, returns the context's error once the
// context is done, and otherwise schedules the next poll. A step it refuses
// is neither a block entry nor an instruction, so it marks the run stopped.
func (m *Machine) pastLimit(fn string, pos int) error {
	if m.steps > m.MaxSteps {
		m.stopped = true
		return &Trap{Func: fn, Pos: pos, Msg: "step limit exceeded"}
	}
	if err := m.ctx.Err(); err != nil {
		m.stopped = true
		return err
	}
	m.limit = min(m.MaxSteps, m.steps+pollSteps, maxLimit)
	return nil
}

// The decoder's own op codes follow the last ir opcode, so the op switch
// stays one dense jump table. opBadArray is the decoded form of a Load or
// Store whose array operand names no local or global array; it traps when
// executed. The fused codes appear only in the fast path's op array (see
// fuse): each runs its own op and then the plain op after it.
const (
	opBadArray = ir.OpCall + 1 + iota
	opAddLoad
	opMulAdd
	opLoadMul
	opLoadAdd
	opAddAdd
)

// The fast path's compare-and-branch terminators follow the last ir
// terminator kind, one per compare op from OpEq to OpGe in the same order:
// each runs its block's folded compare, writes the result to the condition
// register and branches on it.
const (
	termEq = ir.TermReturn + 1 + iota
	termNe
	termLt
	termLe
	termGt
	termGe
)

// fusedCode returns the fused code of the op pair (first, second), or 0
// when the pair is not fused.
func fusedCode(first, second ir.Op) ir.Op {
	switch {
	case first == ir.OpAdd && second == ir.OpLoad:
		return opAddLoad
	case first == ir.OpMul && second == ir.OpAdd:
		return opMulAdd
	case first == ir.OpLoad && second == ir.OpMul:
		return opLoadMul
	case first == ir.OpLoad && second == ir.OpAdd:
		return opLoadAdd
	case first == ir.OpAdd && second == ir.OpAdd:
		return opAddAdd
	}
	return 0
}

// op is one decoded instruction. a and b index the frame's register file,
// where the function's immediates sit in constant registers after NumRegs;
// x is the array-table index of a Load or Store and the call-site index of a
// Call. Const decodes to a Copy from a constant register.
type op struct {
	code      ir.Op
	dst, a, b int32
	x         int32
}

// block is one basic block of a decoded function: its ops are
// ops[start:end], then the terminator runs. The fast path runs
// fast[start:fastEnd] and then fastTerm.
type block struct {
	start, end int32
	// fastEnd is end, or end-1 when the last op is a compare folded into
	// fastTerm.
	fastEnd int32
	// charge is the steps the fast path charges at entry: one for the entry
	// and one per instruction. A block holding a call is charged callCharge,
	// which never fits, so its steps are counted one instruction at a time
	// and the callee runs on the caller's exact count.
	charge   uint64
	term     ir.TermKind
	fastTerm ir.TermKind // term, or the folded compare's termEq...termGe
	cond     int32       // Branch: condition register
	ca, cb   int32       // folded compare: operand registers
	then     int32       // Jump and Branch: target block
	els      int32       // Branch: fall-through block
	ret      int32       // Return: value register, -1 for a void return
}

// callSite is one decoded call: per callee parameter, the caller register of
// a scalar argument or the array-table index of an array argument (-1 when
// the array is unresolved).
type callSite struct {
	name   string
	callee *ir.Function // nil: the callee is undefined
	code   *code        // callee's decoded form, set on its first call
	args   []int32
	hasDst bool
}

// code is a function's decoded form.
type code struct {
	fn  *ir.Function
	ops []op
	// fast is ops with its hot pairs fused, run by blocks on the fast path.
	fast   []op
	pos    []int32 // source line of each op, read only by traps
	blocks []block
	calls  []callSite
	// consts seed the constant registers NumRegs, NumRegs+1, ... of every
	// frame.
	consts []int32

	// taken counts edges traversed in the current run: taken[2*b] the Jump
	// or Branch-then edge out of block b, taken[2*b+1] its else edge.
	taken []uint64
}

// decode returns f's decoded form, building it on f's first call.
func (m *Machine) decode(f *ir.Function) *code {
	if c := m.code[f]; c != nil {
		return c
	}
	c := &code{fn: f, blocks: make([]block, len(f.Blocks)), taken: make([]uint64, 2*len(f.Blocks))}
	constReg := map[int32]int32{}
	operand := func(o ir.Operand) int32 {
		if o.Kind != ir.OperandImm {
			return int32(o.Reg)
		}
		r, ok := constReg[o.Imm]
		if !ok {
			r = int32(f.NumRegs + len(c.consts))
			constReg[o.Imm] = r
			c.consts = append(c.consts, o.Imm)
		}
		return r
	}
	// array resolves an array operand to its index in the frame's table of
	// local arrays followed by the program's globals.
	array := func(id ir.ArrID) int32 {
		if ir.IsGlobalArr(id) {
			if i := ir.GlobalIndex(id); i >= 0 && i < len(m.globals) {
				return int32(len(f.Arrays) + i)
			}
			return -1
		}
		if id >= 0 && int(id) < len(f.Arrays) {
			return int32(id)
		}
		return -1
	}
	for bi, b := range f.Blocks {
		blk := block{start: int32(len(c.ops)), term: b.Term.Kind, fastTerm: b.Term.Kind, then: int32(b.Term.Then), els: int32(b.Term.Else), ret: -1}
		blk.charge = uint64(1 + len(b.Instrs))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			o := op{code: in.Op, dst: int32(in.Dst), a: operand(in.A), b: operand(in.B)}
			switch in.Op {
			case ir.OpConst:
				o.code, o.a = ir.OpCopy, operand(ir.Imm(in.A.Imm))
			case ir.OpLoad, ir.OpStore:
				if o.x = array(in.Arr); o.x < 0 {
					o.code = opBadArray
				}
			case ir.OpCall:
				blk.charge = callCharge
				o.x = int32(len(c.calls))
				c.calls = append(c.calls, m.decodeCall(in, array, operand))
			}
			c.ops = append(c.ops, o)
			c.pos = append(c.pos, int32(in.Pos))
		}
		blk.end = int32(len(c.ops))
		blk.fastEnd = blk.end
		switch b.Term.Kind {
		case ir.TermBranch:
			blk.cond = operand(b.Term.Cond)
			if last := blk.end - 1; blk.charge != callCharge && last >= blk.start {
				if o := c.ops[last]; o.code >= ir.OpEq && o.code <= ir.OpGe && o.dst == blk.cond {
					blk.fastEnd = last
					blk.fastTerm = termEq + ir.TermKind(o.code-ir.OpEq)
					blk.ca, blk.cb = o.a, o.b
				}
			}
		case ir.TermReturn:
			if b.Term.HasVal {
				blk.ret = operand(b.Term.Val)
			}
		}
		c.blocks[bi] = blk
	}
	c.fast = fuse(c.ops, c.blocks)
	m.code[f] = c
	return c
}

// fuse returns the fast path's op array: ops with the first op of each
// fused pair, taken greedily left to right within a block's fast-path ops,
// recoded to run both. No pair absorbs a compare folded into the
// terminator. A block holding a call never runs on the fast path and is
// left plain.
func fuse(ops []op, blocks []block) []op {
	fast := slices.Clone(ops)
	for _, b := range blocks {
		if b.charge == callCharge {
			continue
		}
		for pc := b.start; pc+1 < b.fastEnd; pc++ {
			if f := fusedCode(ops[pc].code, ops[pc+1].code); f != 0 {
				fast[pc].code = f
				pc++
			}
		}
	}
	return fast
}

// decodeCall resolves a call's callee and binds each callee parameter to its
// argument: the i-th scalar parameter to Args[i], the i-th array parameter
// to ArrArgs[i].
func (m *Machine) decodeCall(in *ir.Instr, array func(ir.ArrID) int32, operand func(ir.Operand) int32) callSite {
	s := callSite{name: in.Callee, callee: m.prog.Func(in.Callee), hasDst: in.CallHasDst}
	if s.callee == nil {
		return s
	}
	si, ai := 0, 0
	for _, p := range s.callee.Params {
		if p.IsArray {
			s.args = append(s.args, array(in.ArrArgs[ai]))
			ai++
		} else {
			s.args = append(s.args, operand(in.Args[si]))
			si++
		}
	}
	return s
}

// newFrame allocates a register file with its constant registers filled and
// an array table with the locals' fresh storage and the globals; parameter
// slots stay nil until bound.
func (m *Machine) newFrame(c *code) ([]int32, [][]int32) {
	f := c.fn
	regs := make([]int32, f.NumRegs+len(c.consts))
	copy(regs[f.NumRegs:], c.consts)
	arrs := make([][]int32, len(f.Arrays)+len(m.globals))
	for i, a := range f.Arrays {
		if !a.IsParam {
			arrs[i] = make([]int32, a.Len)
			copy(arrs[i], a.Init)
		}
	}
	copy(arrs[len(f.Arrays):], m.globals)
	return regs, arrs
}

// profileCounts returns the attached profile's block counts for c's
// function, creating or growing them, and its edge map, as needed.
func (m *Machine) profileCounts(c *code) []uint64 {
	name := c.fn.Name
	counts := m.profile.Counts[name]
	if len(counts) < len(c.blocks) {
		grown := make([]uint64, len(c.blocks))
		copy(grown, counts)
		counts = grown
		m.profile.Counts[name] = counts
	}
	if m.profile.Edges[name] == nil {
		m.profile.Edges[name] = map[EdgeKey]uint64{}
	}
	return counts
}

// foldEdges adds every decoded function's taken-edge slots into the
// profile's edge map and clears them. The slots only count under a
// profile.
func (m *Machine) foldEdges() {
	if m.profile == nil {
		return
	}
	for _, c := range m.code {
		edges := m.profile.Edges[c.fn.Name]
		for i, n := range c.taken {
			if n == 0 {
				continue
			}
			b := &c.blocks[i/2]
			to := b.then
			if i%2 == 1 {
				to = b.els
			}
			edges[Edge(ir.BlockID(i/2), ir.BlockID(to))] += n
			c.taken[i] = 0
		}
	}
}

// trapAt builds the trap raised by op pc of block b. On the fast path the
// whole block was charged at entry, so the steps of the ops after pc are
// refunded first.
func (m *Machine) trapAt(c *code, b *block, pc int32, checked bool, msg string) *Trap {
	if !checked {
		m.steps -= uint64(b.end - pc - 1)
	}
	return &Trap{Func: c.fn.Name, Pos: int(c.pos[pc]), Msg: msg}
}

// loadTrap is trapAt for a load at op pc whose index i falls outside its
// array of n elements.
func (m *Machine) loadTrap(c *code, b *block, pc int32, checked bool, i, n int) *Trap {
	return m.trapAt(c, b, pc, checked, fmt.Sprintf("load index %d out of range [0,%d)", i, n))
}

func (m *Machine) exec(c *code, regs []int32, arrs [][]int32) (int32, error) {
	m.depth++
	defer func() { m.depth-- }()
	maxDepth := m.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 256
	}
	if m.depth > maxDepth {
		return 0, &Trap{Func: c.fn.Name, Msg: "call depth limit exceeded"}
	}

	var counts, taken []uint64
	if m.profile != nil {
		counts, taken = m.profileCounts(c), c.taken
	}

	bi := int32(c.fn.Entry)
	for {
		b := &c.blocks[bi]
		// A block entry charges one step even when the block is empty, so
		// instruction-free infinite loops still hit the step limit.
		run, end, term := c.fast, b.fastEnd, b.fastTerm
		checked := m.steps+b.charge > m.limit
		if !checked {
			m.steps += b.charge
		} else {
			run, end, term = c.ops, b.end, b.term
			m.steps++
			if m.steps > m.limit {
				if err := m.pastLimit(c.fn.Name, 0); err != nil {
					return 0, err
				}
			}
		}
		if counts != nil {
			counts[bi]++
		}
		for pc := b.start; pc < end; pc++ {
			if checked {
				m.steps++
				if m.steps > m.limit {
					if err := m.pastLimit(c.fn.Name, int(c.pos[pc])); err != nil {
						return 0, err
					}
				}
			}
			o := &run[pc]
			switch o.code {
			case ir.OpCopy:
				regs[o.dst] = regs[o.a]
			case ir.OpAdd:
				regs[o.dst] = regs[o.a] + regs[o.b]
			case ir.OpSub:
				regs[o.dst] = regs[o.a] - regs[o.b]
			case ir.OpNeg:
				regs[o.dst] = -regs[o.a]
			case ir.OpMul:
				regs[o.dst] = regs[o.a] * regs[o.b]
			case ir.OpDiv:
				x, y := regs[o.a], regs[o.b]
				if y == 0 {
					return 0, m.trapAt(c, b, pc, checked, "division by zero")
				}
				if x == -1<<31 && y == -1 {
					return 0, m.trapAt(c, b, pc, checked, "division overflow")
				}
				regs[o.dst] = x / y
			case ir.OpRem:
				x, y := regs[o.a], regs[o.b]
				if y == 0 {
					return 0, m.trapAt(c, b, pc, checked, "remainder by zero")
				}
				if x == -1<<31 && y == -1 {
					return 0, m.trapAt(c, b, pc, checked, "remainder overflow")
				}
				regs[o.dst] = x % y
			case ir.OpAnd:
				regs[o.dst] = regs[o.a] & regs[o.b]
			case ir.OpOr:
				regs[o.dst] = regs[o.a] | regs[o.b]
			case ir.OpXor:
				regs[o.dst] = regs[o.a] ^ regs[o.b]
			case ir.OpNot:
				regs[o.dst] = ^regs[o.a]
			case ir.OpShl:
				regs[o.dst] = regs[o.a] << (uint32(regs[o.b]) & 31)
			case ir.OpShr:
				regs[o.dst] = regs[o.a] >> (uint32(regs[o.b]) & 31)
			case ir.OpEq:
				regs[o.dst] = b2i(regs[o.a] == regs[o.b])
			case ir.OpNe:
				regs[o.dst] = b2i(regs[o.a] != regs[o.b])
			case ir.OpLt:
				regs[o.dst] = b2i(regs[o.a] < regs[o.b])
			case ir.OpLe:
				regs[o.dst] = b2i(regs[o.a] <= regs[o.b])
			case ir.OpGt:
				regs[o.dst] = b2i(regs[o.a] > regs[o.b])
			case ir.OpGe:
				regs[o.dst] = b2i(regs[o.a] >= regs[o.b])
			case ir.OpLNot:
				regs[o.dst] = b2i(regs[o.a] == 0)
			case ir.OpLoad:
				arr, i := arrs[o.x], int(regs[o.a])
				if uint(i) >= uint(len(arr)) {
					return 0, m.loadTrap(c, b, pc, checked, i, len(arr))
				}
				regs[o.dst] = arr[i]
			case ir.OpStore:
				arr, i := arrs[o.x], int(regs[o.a])
				if uint(i) >= uint(len(arr)) {
					return 0, m.trapAt(c, b, pc, checked, fmt.Sprintf("store index %d out of range [0,%d)", i, len(arr)))
				}
				arr[i] = regs[o.b]
			case opBadArray:
				return 0, m.trapAt(c, b, pc, checked, "unresolved array")
			case ir.OpCall:
				ret, err := m.call(c, b, pc, regs, arrs)
				if err != nil {
					return 0, err
				}
				if c.calls[o.x].hasDst {
					regs[o.dst] = ret
				}
			case opAddLoad:
				regs[o.dst] = regs[o.a] + regs[o.b]
				pc++
				o = &run[pc]
				arr, i := arrs[o.x], int(regs[o.a])
				if uint(i) >= uint(len(arr)) {
					return 0, m.loadTrap(c, b, pc, checked, i, len(arr))
				}
				regs[o.dst] = arr[i]
			case opMulAdd:
				regs[o.dst] = regs[o.a] * regs[o.b]
				pc++
				o = &run[pc]
				regs[o.dst] = regs[o.a] + regs[o.b]
			case opLoadMul:
				arr, i := arrs[o.x], int(regs[o.a])
				if uint(i) >= uint(len(arr)) {
					return 0, m.loadTrap(c, b, pc, checked, i, len(arr))
				}
				regs[o.dst] = arr[i]
				pc++
				o = &run[pc]
				regs[o.dst] = regs[o.a] * regs[o.b]
			case opLoadAdd:
				arr, i := arrs[o.x], int(regs[o.a])
				if uint(i) >= uint(len(arr)) {
					return 0, m.loadTrap(c, b, pc, checked, i, len(arr))
				}
				regs[o.dst] = arr[i]
				pc++
				o = &run[pc]
				regs[o.dst] = regs[o.a] + regs[o.b]
			case opAddAdd:
				regs[o.dst] = regs[o.a] + regs[o.b]
				pc++
				o = &run[pc]
				regs[o.dst] = regs[o.a] + regs[o.b]
			default:
				return 0, m.trapAt(c, b, pc, checked, "invalid opcode")
			}
		}
		var cond bool
		switch term {
		case ir.TermJump:
			if counts != nil {
				taken[2*bi]++
			}
			bi = b.then
			continue
		case ir.TermBranch:
			cond = regs[b.cond] != 0
		case termEq:
			cond = regs[b.ca] == regs[b.cb]
			regs[b.cond] = b2i(cond)
		case termNe:
			cond = regs[b.ca] != regs[b.cb]
			regs[b.cond] = b2i(cond)
		case termLt:
			cond = regs[b.ca] < regs[b.cb]
			regs[b.cond] = b2i(cond)
		case termLe:
			cond = regs[b.ca] <= regs[b.cb]
			regs[b.cond] = b2i(cond)
		case termGt:
			cond = regs[b.ca] > regs[b.cb]
			regs[b.cond] = b2i(cond)
		case termGe:
			cond = regs[b.ca] >= regs[b.cb]
			regs[b.cond] = b2i(cond)
		case ir.TermReturn:
			if b.ret < 0 {
				return 0, nil
			}
			return regs[b.ret], nil
		default:
			return 0, &Trap{Func: c.fn.Name, Msg: "unterminated block"}
		}
		if cond {
			if counts != nil {
				taken[2*bi]++
			}
			bi = b.then
		} else {
			if counts != nil {
				taken[2*bi+1]++
			}
			bi = b.els
		}
	}
}

// call runs the call at op pc of block b, which is on the checked path, in
// a fresh callee frame bound to the call's arguments.
func (m *Machine) call(c *code, b *block, pc int32, regs []int32, arrs [][]int32) (int32, error) {
	s := &c.calls[c.ops[pc].x]
	if s.callee == nil {
		return 0, m.trapAt(c, b, pc, true, "call to undefined "+s.name)
	}
	if s.code == nil {
		s.code = m.decode(s.callee)
	}
	sregs, sarrs := m.newFrame(s.code)
	for i, p := range s.callee.Params {
		src := s.args[i]
		if !p.IsArray {
			sregs[p.Reg] = regs[src]
			continue
		}
		if src < 0 {
			return 0, m.trapAt(c, b, pc, true, "unresolved array argument")
		}
		sarrs[p.Arr] = arrs[src]
	}
	return m.exec(s.code, sregs, sarrs)
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
