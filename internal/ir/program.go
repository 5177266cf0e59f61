package ir

import (
	"fmt"
	"strings"
)

// ArrayDecl describes an array object. Arrays live in the platform's shared
// data memory; two-dimensional source arrays are lowered to one dimension
// with explicit index arithmetic.
type ArrayDecl struct {
	Name   string
	Len    int32   // number of int32 elements (0 for by-reference params)
	Init   []int32 // optional initializer (len <= Len); rest is zero
	Global bool
	// IsParam marks a by-reference array parameter slot: it owns no storage;
	// the interpreter aliases it to the caller's array and the inliner
	// substitutes the call-site array.
	IsParam bool
}

// Param describes a formal parameter of a Function.
type Param struct {
	Name    string
	IsArray bool
	Reg     RegID // scalar params: the register bound on entry
	Arr     ArrID // array params: the array slot bound on entry
}

// Function is a single procedure in CFG form.
type Function struct {
	Name    string
	Params  []Param
	HasRet  bool // returns a value
	NumRegs int  // virtual registers are 0..NumRegs-1
	// RegNames maps registers that correspond to named source variables;
	// compiler temporaries are absent.
	RegNames map[RegID]string
	Arrays   []ArrayDecl // parameter and local arrays (Global=false)
	Blocks   []*Block
	Entry    BlockID
}

// NewFunction returns an empty function with an entry block allocated.
func NewFunction(name string) *Function {
	f := &Function{Name: name, RegNames: map[RegID]string{}}
	f.Entry = f.AddBlock("entry").ID
	return f
}

// AddBlock appends a fresh, unterminated block.
func (f *Function) AddBlock(name string) *Block {
	b := &Block{ID: BlockID(len(f.Blocks)), Name: name}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewReg allocates a fresh virtual register, optionally named.
func (f *Function) NewReg(name string) RegID {
	r := RegID(f.NumRegs)
	f.NumRegs++
	if name != "" {
		f.RegNames[r] = name
	}
	return r
}

// AddArray appends a local/parameter array declaration and returns its ID.
func (f *Function) AddArray(d ArrayDecl) ArrID {
	f.Arrays = append(f.Arrays, d)
	return ArrID(len(f.Arrays) - 1)
}

// Block returns the block with the given ID, or nil if out of range.
func (f *Function) Block(id BlockID) *Block {
	if id < 0 || int(id) >= len(f.Blocks) {
		return nil
	}
	return f.Blocks[id]
}

// RecomputeEdges rebuilds the Preds/Succs lists from the terminators.
func (f *Function) RecomputeEdges() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
		b.Succs = b.Succs[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succtargets() {
			b.Succs = append(b.Succs, s)
			f.Blocks[s].Preds = append(f.Blocks[s].Preds, b.ID)
		}
	}
}

// Reachable returns the set of blocks reachable from the entry.
func (f *Function) Reachable() map[BlockID]bool {
	seen := map[BlockID]bool{}
	stack := []BlockID{f.Entry}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Out-of-range targets are tolerated here so Validate can report
		// them instead of panicking.
		if id < 0 || int(id) >= len(f.Blocks) || seen[id] {
			continue
		}
		seen[id] = true
		stack = append(stack, f.Blocks[id].Succtargets()...)
	}
	return seen
}

func (f *Function) String() string {
	var sb strings.Builder
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		if p.IsArray {
			params[i] = p.Name + "[]"
		} else {
			params[i] = p.Name
		}
	}
	fmt.Fprintf(&sb, "func %s(%s):\n", f.Name, strings.Join(params, ", "))
	for _, a := range f.Arrays {
		fmt.Fprintf(&sb, "  array %s[%d]\n", a.Name, a.Len)
	}
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d: ; %s\n", b.ID, b.Name)
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", b.Instrs[i].String())
		}
		fmt.Fprintf(&sb, "  %s\n", b.Term)
	}
	return sb.String()
}

// Program is a whole translation unit.
type Program struct {
	Funcs   []*Function
	Globals []ArrayDecl
	byName  map[string]*Function
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{byName: map[string]*Function{}}
}

// AddFunc appends f; duplicate names are an error.
func (p *Program) AddFunc(f *Function) error {
	if p.byName == nil {
		p.byName = map[string]*Function{}
	}
	if _, dup := p.byName[f.Name]; dup {
		return fmt.Errorf("ir: duplicate function %q", f.Name)
	}
	p.byName[f.Name] = f
	p.Funcs = append(p.Funcs, f)
	return nil
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Function {
	if p.byName == nil {
		p.byName = map[string]*Function{}
		for _, f := range p.Funcs {
			p.byName[f.Name] = f
		}
	}
	return p.byName[name]
}

// AddGlobal appends a global array and returns its ID (global array IDs are
// negative-offset encoded: see GlobalArr/IsGlobalArr).
func (p *Program) AddGlobal(d ArrayDecl) ArrID {
	d.Global = true
	p.Globals = append(p.Globals, d)
	return GlobalArr(len(p.Globals) - 1)
}

// Global array references are encoded as negative ArrIDs so that one operand
// field addresses both spaces: local arrays are 0,1,2,... and global array i
// is -(i+2) (NoArr is -1).

// GlobalArr encodes global index i as an ArrID.
func GlobalArr(i int) ArrID { return ArrID(-(i + 2)) }

// IsGlobalArr reports whether id refers to a global array.
func IsGlobalArr(id ArrID) bool { return id <= -2 }

// GlobalIndex decodes a global ArrID to its index in Program.Globals.
func GlobalIndex(id ArrID) int { return int(-id) - 2 }

// ArrayByRef resolves an ArrID against f's locals and p's globals.
func (p *Program) ArrayByRef(f *Function, id ArrID) (*ArrayDecl, bool) {
	switch {
	case IsGlobalArr(id):
		i := GlobalIndex(id)
		if i < 0 || i >= len(p.Globals) {
			return nil, false
		}
		return &p.Globals[i], true
	case id >= 0 && int(id) < len(f.Arrays):
		return &f.Arrays[id], true
	}
	return nil, false
}

func (p *Program) String() string {
	var sb strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&sb, "global %s[%d]\n", g.Name, g.Len)
	}
	for _, f := range p.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}
