// Package lower is the mini-C front end's semantic pass and its translation
// into the ir form consumed by the methodology. Lower resolves every name
// through one scope chain, runs the language's checks (scalar vs array use,
// call arity and argument shapes, const-ness, loop context of
// break/continue, initializer sanity, array size limits) and folds const
// initializers, array dimensions and global array initializers with one
// folder. While it checks, it flattens expressions to three-address code,
// lowers short-circuit and ternary operators to control flow and 2-D array
// addressing to explicit index arithmetic. CFG cleanup and a whole-program
// inliner then give the partitioner one flat CDFG per entry point (the role
// SUIF2/MachineSUIF passes play in the paper's framework).
package lower

import (
	"errors"
	"fmt"

	"hybridpart/internal/ir"
	"hybridpart/internal/minic"
)

// MaxArrayLen bounds the element count of one declared array, and of all
// global and local array declarations of a program together. Arrays are
// allocated whole when a program runs, so the bound keeps a declaration —
// or many of them — from demanding gigabytes (or overflowing the int32
// length of a 2-D array).
const MaxArrayLen = 1 << 24

// Lower checks f and translates every function into IR. Every error about
// the source is a *minic.Error carrying the offending line.
func Lower(f *minic.File) (*ir.Program, error) {
	prog := ir.NewProgram()
	l := &lowerer{prog: prog, globals: map[string]binding{}}

	// Pass 1: globals and function signatures in source order, so a global
	// declaration sees only the names declared above it.
	var funcs []*minic.FuncDecl
	for _, d := range f.Decls {
		var err error
		switch d := d.(type) {
		case *minic.VarDecl:
			err = l.lowerGlobal(d)
		case *minic.FuncDecl:
			err = l.declareFunc(d)
			funcs = append(funcs, d)
		}
		if err != nil {
			return nil, err
		}
	}
	// Pass 2: bodies, which see every global.
	for _, fd := range funcs {
		fn, err := l.lowerFunc(fd)
		if err != nil {
			return nil, err
		}
		if err := prog.AddFunc(fn); err != nil {
			return nil, err
		}
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("lower: internal error: %w", err)
	}
	return prog, nil
}

// LowerSource parses, checks and lowers source text in one step.
func LowerSource(src string) (*ir.Program, error) {
	file, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	return Lower(file)
}

// errf builds a diagnostic at line. The AST carries lines only, so the
// column is always 1.
func errf(line int, format string, args ...interface{}) error {
	return &minic.Error{Line: line, Col: 1, Msg: fmt.Sprintf(format, args...)}
}

type bindKind uint8

const (
	bindConst bindKind = iota
	bindScalar
	bindArray
	bindFunc
)

// binding is what a name resolves to: the front end's only symbol table
// entry.
type binding struct {
	kind     bindKind
	constVal int32
	reg      ir.RegID
	arr      ir.ArrID
	innerDim int32           // 2-D arrays; 0 for 1-D
	fn       *minic.FuncDecl // functions
	inner    []int32         // functions: each parameter's innerDim
}

// scopes is a chain of scopes, innermost last; the first is the global one.
type scopes []map[string]binding

func (s scopes) lookup(name string) (binding, bool) {
	for i := len(s) - 1; i >= 0; i-- {
		if b, ok := s[i][name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

// declare binds name, declared on line, in the innermost scope, unless that
// scope already declares it.
func (s scopes) declare(name string, line int, b binding) error {
	inner := s[len(s)-1]
	if _, dup := inner[name]; dup {
		return errf(line, "redeclaration of %q", name)
	}
	inner[name] = b
	return nil
}

// errNotConst reports a constant expression that reads a name other than a
// const, indexes an array, calls a function, or would trap when run.
var errNotConst = errors.New("not constant")

// fold evaluates e as a compile-time constant over the names in s. A name
// that is undefined, or names an array or a function, is an error of its
// own rather than errNotConst.
func (s scopes) fold(e minic.Expr) (int32, error) {
	v, ok, err := s.eval(e)
	if err == nil && !ok {
		err = errNotConst
	}
	return v, err
}

// eval is fold's walk; ok is false where running e would trap: a division
// or remainder by zero, or of MinInt32 by -1. An operand that &&, || or ?:
// skips does not run, so its trap does not count.
func (s scopes) eval(e minic.Expr) (v int32, ok bool, err error) {
	switch e := e.(type) {
	case *minic.IntLit:
		return e.Val, true, nil
	case *minic.Ident:
		b, found := s.lookup(e.Name)
		if !found {
			return 0, false, errf(e.Line, "undefined: %q", e.Name)
		}
		switch b.kind {
		case bindConst:
			return b.constVal, true, nil
		case bindFunc:
			return 0, false, errf(e.Line, "function %q used as a value", e.Name)
		case bindArray:
			return 0, false, errf(e.Line, "array %q used as a scalar value", e.Name)
		}
		return 0, false, errNotConst
	case *minic.UnaryExpr:
		x, ok, err := s.eval(e.X)
		return evalUnary(e.Op, x), ok, err
	case *minic.BinaryExpr:
		x, okX, err := s.eval(e.X)
		if err != nil {
			return 0, false, err
		}
		y, okY, err := s.eval(e.Y)
		if err != nil {
			return 0, false, err
		}
		if e.Op == minic.AndAnd && x == 0 || e.Op == minic.OrOr && x != 0 {
			okY = true
		}
		v, ok := evalBinary(e.Op, x, y)
		return v, ok && okX && okY, nil
	case *minic.CondExpr:
		c, okC, err := s.eval(e.Cond)
		if err != nil {
			return 0, false, err
		}
		t, okT, err := s.eval(e.Then)
		if err != nil {
			return 0, false, err
		}
		f, okF, err := s.eval(e.Else)
		if err != nil {
			return 0, false, err
		}
		if c != 0 {
			return t, okC && okT, nil
		}
		return f, okC && okF, nil
	}
	return 0, false, errNotConst
}

// constValue folds the initializer of const declaration d.
func (s scopes) constValue(d *minic.VarDecl) (int32, error) {
	v, err := s.fold(d.Init)
	if err == errNotConst {
		err = errf(d.Line, "const %s initializer is not a constant expression", d.Name)
	}
	return v, err
}

// constExpr folds e, a constant expression on line.
func (s scopes) constExpr(e minic.Expr, line int) (int32, error) {
	v, err := s.fold(e)
	if err == errNotConst {
		err = errf(line, "expression is not compile-time constant")
	}
	return v, err
}

// dim folds an array dimension declared on line; one that is not positive
// is a "<what> must be positive" error.
func (s scopes) dim(e minic.Expr, line int, what string) (int32, error) {
	v, err := s.constExpr(e, line)
	if err == nil && v <= 0 {
		err = errf(line, "%s must be positive", what)
	}
	return v, err
}

type lowerer struct {
	prog    *ir.Program
	globals map[string]binding
	// arrayElems sums the elements of every array declared so far.
	arrayElems int64
}

// arrayShape folds d's dimensions in s and returns its element count and
// inner dimension (0 for 1-D), charging the count to the program's total.
// It also checks that d's initializer list fits.
func (l *lowerer) arrayShape(d *minic.VarDecl, s scopes) (total, inner int32, err error) {
	n := int64(1)
	for _, e := range d.Dims {
		if inner, err = s.dim(e, d.Line, "array dimension"); err != nil {
			return 0, 0, err
		}
		n *= int64(inner)
	}
	if len(d.Dims) == 1 {
		inner = 0
	}
	if n > MaxArrayLen {
		return 0, 0, errf(d.Line, "array %s has %d elements, over the limit of %d", d.Name, n, MaxArrayLen)
	}
	l.arrayElems += n
	if l.arrayElems > MaxArrayLen {
		return 0, 0, errf(d.Line, "array %s brings the program's declared array elements to %d, over the limit of %d", d.Name, l.arrayElems, MaxArrayLen)
	}
	if len(d.ArrInit) > int(n) {
		return 0, 0, errf(d.Line, "%d initializers for array %q of %d elements", len(d.ArrInit), d.Name, n)
	}
	return int32(n), inner, nil
}

func (l *lowerer) lowerGlobal(d *minic.VarDecl) error {
	g := scopes{l.globals}
	switch {
	case d.IsConst:
		v, err := g.constValue(d)
		if err != nil {
			return err
		}
		return g.declare(d.Name, d.Line, binding{kind: bindConst, constVal: v})
	case len(d.Dims) == 0:
		if err := g.declare(d.Name, d.Line, binding{kind: bindScalar}); err != nil {
			return err
		}
		return errf(d.Line, "global scalar %q must be const (mutable globals must be arrays in the shared data memory)", d.Name)
	}
	total, inner, err := l.arrayShape(d, g)
	if err != nil {
		return err
	}
	id := l.prog.AddGlobal(ir.ArrayDecl{Name: d.Name, Len: total})
	if err := g.declare(d.Name, d.Line, binding{kind: bindArray, arr: id, innerDim: inner}); err != nil {
		return err
	}
	if len(d.ArrInit) == 0 {
		return nil // Init stays nil: the array starts all zero
	}
	// No code runs at global scope, so every element must fold.
	init := make([]int32, len(d.ArrInit))
	for i, e := range d.ArrInit {
		v, err := g.fold(e)
		if err == errNotConst {
			err = errf(e.Pos(), "global array %q initializer must be constant", d.Name)
		}
		if err != nil {
			return err
		}
		init[i] = v
	}
	l.prog.Globals[ir.GlobalIndex(id)].Init = init
	return nil
}

// declareFunc folds fd's parameter dimensions and declares it, so that
// calls from any body are checked against its signature.
func (l *lowerer) declareFunc(fd *minic.FuncDecl) error {
	g := scopes{l.globals}
	inner := make([]int32, len(fd.Params))
	for i, p := range fd.Params {
		if p.OuterDim != nil {
			if _, err := g.constExpr(p.OuterDim, p.Line); err != nil {
				return err
			}
		}
		if p.InnerDim != nil {
			v, err := g.dim(p.InnerDim, p.Line, "inner array dimension")
			if err != nil {
				return err
			}
			inner[i] = v
		}
	}
	return g.declare(fd.Name, fd.Line, binding{kind: bindFunc, fn: fd, inner: inner})
}

// funcLowerer holds per-function lowering state.
type funcLowerer struct {
	l      *lowerer
	fd     *minic.FuncDecl
	fn     *ir.Function
	scopes scopes
	cur    *ir.Block
	// loop context stacks for break/continue.
	breakTo    []ir.BlockID
	continueTo []ir.BlockID
}

func (l *lowerer) lowerFunc(fd *minic.FuncDecl) (*ir.Function, error) {
	fl := &funcLowerer{l: l, fd: fd, fn: ir.NewFunction(fd.Name), scopes: scopes{l.globals}}
	fl.fn.HasRet = !fd.Void
	fl.cur = fl.fn.Block(fl.fn.Entry)
	fl.pushScope()

	sig := l.globals[fd.Name]
	for i, p := range fd.Params {
		var b binding
		if p.IsArray {
			arr := fl.fn.AddArray(ir.ArrayDecl{Name: p.Name, IsParam: true})
			fl.fn.Params = append(fl.fn.Params, ir.Param{Name: p.Name, IsArray: true, Arr: arr, Reg: ir.NoReg})
			b = binding{kind: bindArray, arr: arr, innerDim: sig.inner[i]}
		} else {
			reg := fl.fn.NewReg(p.Name)
			fl.fn.Params = append(fl.fn.Params, ir.Param{Name: p.Name, Reg: reg, Arr: ir.NoArr})
			b = binding{kind: bindScalar, reg: reg}
		}
		if fl.scopes.declare(p.Name, p.Line, b) != nil {
			return nil, errf(p.Line, "duplicate parameter %q", p.Name)
		}
	}

	if err := fl.stmt(fd.Body); err != nil {
		return nil, err
	}
	// Implicit return: C permits falling off the end; int functions yield 0.
	if fl.cur != nil && fl.cur.Term.Kind == ir.TermNone {
		if fd.Void {
			fl.cur.Term = ir.Terminator{Kind: ir.TermReturn}
		} else {
			fl.cur.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.Imm(0), HasVal: true}
		}
	}
	Cleanup(fl.fn)
	return fl.fn, nil
}

func (fl *funcLowerer) pushScope() {
	fl.scopes = append(fl.scopes, map[string]binding{})
}

func (fl *funcLowerer) popScope() {
	fl.scopes = fl.scopes[:len(fl.scopes)-1]
}

func (fl *funcLowerer) emit(in ir.Instr) {
	if fl.cur == nil {
		// Unreachable code after return/break; drop it (cleanup would
		// remove the block anyway).
		return
	}
	fl.cur.Instrs = append(fl.cur.Instrs, in)
}

func (fl *funcLowerer) newBlock(name string) *ir.Block { return fl.fn.AddBlock(name) }

// setTerm terminates the current block and moves to next (nil = dead code).
func (fl *funcLowerer) setTerm(t ir.Terminator, next *ir.Block) {
	if fl.cur != nil {
		fl.cur.Term = t
	}
	fl.cur = next
}

func (fl *funcLowerer) jumpTo(b *ir.Block) {
	if fl.cur != nil && fl.cur.Term.Kind == ir.TermNone {
		fl.cur.Term = ir.Terminator{Kind: ir.TermJump, Then: b.ID}
	}
	fl.cur = b
}

func (fl *funcLowerer) stmt(s minic.Stmt) error {
	switch s := s.(type) {
	case *minic.BlockStmt:
		fl.pushScope()
		for _, st := range s.List {
			if err := fl.stmt(st); err != nil {
				return err
			}
		}
		fl.popScope()
	case *minic.DeclStmt:
		for _, d := range s.Decls {
			if err := fl.localDecl(d); err != nil {
				return err
			}
		}
	case *minic.AssignStmt:
		return fl.assign(s)
	case *minic.IncDecStmt:
		op := minic.PlusAssign
		if s.Op == minic.Dec {
			op = minic.MinusAssign
		}
		return fl.assign(&minic.AssignStmt{Op: op, LHS: s.LHS,
			RHS: &minic.IntLit{Val: 1, Line: s.Line}, Line: s.Line})
	case *minic.ExprStmt:
		call := s.X.(*minic.CallExpr)
		_, err := fl.lowerCall(call, false)
		return err
	case *minic.IfStmt:
		return fl.ifStmt(s)
	case *minic.ForStmt:
		return fl.forStmt(s)
	case *minic.WhileStmt:
		return fl.whileStmt(s)
	case *minic.DoWhileStmt:
		return fl.doWhileStmt(s)
	case *minic.ReturnStmt:
		if fl.fd.Void && s.X != nil {
			return errf(s.Line, "void function %q returns a value", fl.fd.Name)
		}
		if !fl.fd.Void && s.X == nil {
			return errf(s.Line, "function %q must return a value", fl.fd.Name)
		}
		if s.X == nil {
			fl.setTerm(ir.Terminator{Kind: ir.TermReturn, Pos: s.Line}, nil)
			return nil
		}
		v, err := fl.expr(s.X)
		if err != nil {
			return err
		}
		fl.setTerm(ir.Terminator{Kind: ir.TermReturn, Val: v, HasVal: true, Pos: s.Line}, nil)
	case *minic.BreakStmt:
		if len(fl.breakTo) == 0 {
			return errf(s.Line, "break outside loop")
		}
		fl.setTerm(ir.Terminator{Kind: ir.TermJump, Then: fl.breakTo[len(fl.breakTo)-1], Pos: s.Line}, nil)
	case *minic.ContinueStmt:
		if len(fl.continueTo) == 0 {
			return errf(s.Line, "continue outside loop")
		}
		fl.setTerm(ir.Terminator{Kind: ir.TermJump, Then: fl.continueTo[len(fl.continueTo)-1], Pos: s.Line}, nil)
	case *minic.EmptyStmt:
	default:
		return fmt.Errorf("lower: unknown statement %T", s)
	}
	return nil
}

func (fl *funcLowerer) localDecl(d *minic.VarDecl) error {
	var b binding
	switch {
	case d.IsConst:
		v, err := fl.scopes.constValue(d)
		if err != nil {
			return err
		}
		b = binding{kind: bindConst, constVal: v}
	case len(d.Dims) > 0:
		total, inner, err := fl.l.arrayShape(d, fl.scopes)
		if err != nil {
			return err
		}
		arr := fl.fn.AddArray(ir.ArrayDecl{Name: d.Name, Len: total})
		if err := fl.arrayInit(arr, d); err != nil {
			return err
		}
		b = binding{kind: bindArray, arr: arr, innerDim: inner}
	default:
		reg := fl.fn.NewReg(d.Name)
		if d.Init != nil {
			v, err := fl.expr(d.Init)
			if err != nil {
				return err
			}
			fl.emitCopy(reg, v, d.Line)
		}
		b = binding{kind: bindScalar, reg: reg}
	}
	// A declaration's own initializer does not see it.
	return fl.scopes.declare(d.Name, d.Line, b)
}

// arrayInit initializes local array arr from d's initializer list: in the
// declaration when every element folds, else by element-wise stores.
func (fl *funcLowerer) arrayInit(arr ir.ArrID, d *minic.VarDecl) error {
	if len(d.ArrInit) == 0 {
		return nil
	}
	init := make([]int32, len(d.ArrInit))
	for i, e := range d.ArrInit {
		v, err := fl.scopes.fold(e)
		if err != nil {
			init = nil
			break
		}
		init[i] = v
	}
	if init != nil {
		fl.fn.Arrays[arr].Init = init
		return nil
	}
	for i, e := range d.ArrInit {
		v, err := fl.expr(e)
		if err != nil {
			return err
		}
		fl.emit(ir.Instr{Op: ir.OpStore, Arr: arr, A: ir.Imm(int32(i)), B: v, Pos: d.Line})
	}
	return nil
}

func (fl *funcLowerer) emitCopy(dst ir.RegID, v ir.Operand, pos int) {
	if v.IsReg() && v.Reg == dst {
		return
	}
	if v.IsImm() {
		fl.emit(ir.Instr{Op: ir.OpConst, Dst: dst, A: v, Pos: pos})
		return
	}
	fl.emit(ir.Instr{Op: ir.OpCopy, Dst: dst, A: v, Pos: pos})
}

var assignOpMap = map[minic.Kind]ir.Op{
	minic.PlusAssign:    ir.OpAdd,
	minic.MinusAssign:   ir.OpSub,
	minic.StarAssign:    ir.OpMul,
	minic.SlashAssign:   ir.OpDiv,
	minic.PercentAssign: ir.OpRem,
	minic.ShlAssign:     ir.OpShl,
	minic.ShrAssign:     ir.OpShr,
	minic.AmpAssign:     ir.OpAnd,
	minic.PipeAssign:    ir.OpOr,
	minic.CaretAssign:   ir.OpXor,
}

func (fl *funcLowerer) assign(s *minic.AssignStmt) error {
	switch lhs := s.LHS.(type) {
	case *minic.Ident:
		b, ok := fl.scopes.lookup(lhs.Name)
		switch {
		case !ok:
			return errf(lhs.Line, "undefined: %q", lhs.Name)
		case b.kind == bindConst:
			return errf(lhs.Line, "cannot assign to const %q", lhs.Name)
		case b.kind == bindArray:
			return errf(lhs.Line, "cannot assign to array %q without an index", lhs.Name)
		case b.kind == bindFunc:
			return errf(lhs.Line, "cannot assign to function %q", lhs.Name)
		}
		if s.Op == minic.Assign {
			v, err := fl.expr(s.RHS)
			if err != nil {
				return err
			}
			fl.emitCopy(b.reg, v, s.Line)
			return nil
		}
		op := assignOpMap[s.Op]
		v, err := fl.expr(s.RHS)
		if err != nil {
			return err
		}
		fl.emit(ir.Instr{Op: op, Dst: b.reg, A: ir.Reg(b.reg), B: v, Pos: s.Line})
		return nil
	case *minic.IndexExpr:
		b, idx, err := fl.arrayIndex(lhs)
		if err != nil {
			return err
		}
		if s.Op == minic.Assign {
			v, err := fl.expr(s.RHS)
			if err != nil {
				return err
			}
			fl.emit(ir.Instr{Op: ir.OpStore, Arr: b.arr, A: idx, B: v, Pos: s.Line})
			return nil
		}
		// Compound assignment: load, modify, store. The index operand is
		// reused, so it is materialized once.
		op := assignOpMap[s.Op]
		oldv := fl.fn.NewReg("")
		fl.emit(ir.Instr{Op: ir.OpLoad, Dst: oldv, Arr: b.arr, A: idx, Pos: s.Line})
		v, err := fl.expr(s.RHS)
		if err != nil {
			return err
		}
		tmp := fl.fn.NewReg("")
		fl.emit(ir.Instr{Op: op, Dst: tmp, A: ir.Reg(oldv), B: v, Pos: s.Line})
		fl.emit(ir.Instr{Op: ir.OpStore, Arr: b.arr, A: idx, B: ir.Reg(tmp), Pos: s.Line})
		return nil
	}
	return fmt.Errorf("lower: %d: invalid assignment target", s.Line)
}

// arrayIndex resolves an IndexExpr to its array binding and flat index
// operand, emitting 2-D address arithmetic as needed.
func (fl *funcLowerer) arrayIndex(e *minic.IndexExpr) (binding, ir.Operand, error) {
	b, ok := fl.scopes.lookup(e.Name)
	if !ok {
		return binding{}, ir.Operand{}, errf(e.Line, "undefined: %q", e.Name)
	}
	if b.kind != bindArray {
		return binding{}, ir.Operand{}, errf(e.Line, "%q is not an array", e.Name)
	}
	got := 1
	if e.J != nil {
		got = 2
	}
	if want := rank(b.innerDim); want != got {
		return binding{}, ir.Operand{}, errf(e.Line, "array %q requires %d indices, got %d", e.Name, want, got)
	}
	i, err := fl.expr(e.I)
	if err != nil {
		return binding{}, ir.Operand{}, err
	}
	if e.J == nil {
		return b, i, nil
	}
	j, err := fl.expr(e.J)
	if err != nil {
		return binding{}, ir.Operand{}, err
	}
	// idx = i*innerDim + j, folded when both parts are constant.
	if i.IsImm() && j.IsImm() {
		return b, ir.Imm(i.Imm*b.innerDim + j.Imm), nil
	}
	var rowOp ir.Operand
	if i.IsImm() {
		rowOp = ir.Imm(i.Imm * b.innerDim)
	} else {
		row := fl.fn.NewReg("")
		fl.emit(ir.Instr{Op: ir.OpMul, Dst: row, A: i, B: ir.Imm(b.innerDim), Pos: e.Line})
		rowOp = ir.Reg(row)
	}
	idx := fl.fn.NewReg("")
	fl.emit(ir.Instr{Op: ir.OpAdd, Dst: idx, A: rowOp, B: j, Pos: e.Line})
	return b, ir.Reg(idx), nil
}

func (fl *funcLowerer) ifStmt(s *minic.IfStmt) error {
	thenB := fl.newBlock("if.then")
	var elseB *ir.Block
	joinB := fl.newBlock("if.end")
	if s.Else != nil {
		elseB = fl.newBlock("if.else")
		if err := fl.condBranch(s.Cond, thenB.ID, elseB.ID); err != nil {
			return err
		}
	} else {
		if err := fl.condBranch(s.Cond, thenB.ID, joinB.ID); err != nil {
			return err
		}
	}
	fl.cur = thenB
	if err := fl.stmt(s.Then); err != nil {
		return err
	}
	fl.jumpTo(joinB)
	if s.Else != nil {
		fl.cur = elseB
		if err := fl.stmt(s.Else); err != nil {
			return err
		}
		fl.jumpTo(joinB)
	}
	fl.cur = joinB
	return nil
}

func (fl *funcLowerer) forStmt(s *minic.ForStmt) error {
	fl.pushScope()
	defer fl.popScope()
	if s.Init != nil {
		if err := fl.stmt(s.Init); err != nil {
			return err
		}
	}
	condB := fl.newBlock("for.cond")
	bodyB := fl.newBlock("for.body")
	postB := fl.newBlock("for.inc")
	exitB := fl.newBlock("for.end")
	fl.jumpTo(condB)
	if s.Cond != nil {
		if err := fl.condBranch(s.Cond, bodyB.ID, exitB.ID); err != nil {
			return err
		}
	} else {
		fl.setTerm(ir.Terminator{Kind: ir.TermJump, Then: bodyB.ID}, nil)
	}
	fl.cur = bodyB
	fl.breakTo = append(fl.breakTo, exitB.ID)
	fl.continueTo = append(fl.continueTo, postB.ID)
	err := fl.stmt(s.Body)
	fl.breakTo = fl.breakTo[:len(fl.breakTo)-1]
	fl.continueTo = fl.continueTo[:len(fl.continueTo)-1]
	if err != nil {
		return err
	}
	fl.jumpTo(postB)
	if s.Post != nil {
		if err := fl.stmt(s.Post); err != nil {
			return err
		}
	}
	fl.setTerm(ir.Terminator{Kind: ir.TermJump, Then: condB.ID}, exitB)
	return nil
}

func (fl *funcLowerer) whileStmt(s *minic.WhileStmt) error {
	condB := fl.newBlock("while.cond")
	bodyB := fl.newBlock("while.body")
	exitB := fl.newBlock("while.end")
	fl.jumpTo(condB)
	if err := fl.condBranch(s.Cond, bodyB.ID, exitB.ID); err != nil {
		return err
	}
	fl.cur = bodyB
	fl.breakTo = append(fl.breakTo, exitB.ID)
	fl.continueTo = append(fl.continueTo, condB.ID)
	err := fl.stmt(s.Body)
	fl.breakTo = fl.breakTo[:len(fl.breakTo)-1]
	fl.continueTo = fl.continueTo[:len(fl.continueTo)-1]
	if err != nil {
		return err
	}
	fl.setTerm(ir.Terminator{Kind: ir.TermJump, Then: condB.ID}, exitB)
	return nil
}

func (fl *funcLowerer) doWhileStmt(s *minic.DoWhileStmt) error {
	bodyB := fl.newBlock("do.body")
	condB := fl.newBlock("do.cond")
	exitB := fl.newBlock("do.end")
	fl.jumpTo(bodyB)
	fl.breakTo = append(fl.breakTo, exitB.ID)
	fl.continueTo = append(fl.continueTo, condB.ID)
	err := fl.stmt(s.Body)
	fl.breakTo = fl.breakTo[:len(fl.breakTo)-1]
	fl.continueTo = fl.continueTo[:len(fl.continueTo)-1]
	if err != nil {
		return err
	}
	fl.jumpTo(condB)
	if err := fl.condBranch(s.Cond, bodyB.ID, exitB.ID); err != nil {
		return err
	}
	fl.cur = exitB
	return nil
}

// condBranch lowers e as a branch condition with short-circuit evaluation,
// terminating the current block.
func (fl *funcLowerer) condBranch(e minic.Expr, thenID, elseID ir.BlockID) error {
	switch e := e.(type) {
	case *minic.BinaryExpr:
		switch e.Op {
		case minic.AndAnd:
			mid := fl.newBlock("land.rhs")
			if err := fl.condBranch(e.X, mid.ID, elseID); err != nil {
				return err
			}
			fl.cur = mid
			return fl.condBranch(e.Y, thenID, elseID)
		case minic.OrOr:
			mid := fl.newBlock("lor.rhs")
			if err := fl.condBranch(e.X, thenID, mid.ID); err != nil {
				return err
			}
			fl.cur = mid
			return fl.condBranch(e.Y, thenID, elseID)
		}
	case *minic.UnaryExpr:
		if e.Op == minic.Bang {
			return fl.condBranch(e.X, elseID, thenID)
		}
	}
	v, err := fl.expr(e)
	if err != nil {
		return err
	}
	if v.IsImm() {
		// Constant condition folds to an unconditional jump.
		target := thenID
		if v.Imm == 0 {
			target = elseID
		}
		fl.setTerm(ir.Terminator{Kind: ir.TermJump, Then: target}, nil)
		return nil
	}
	fl.setTerm(ir.Terminator{Kind: ir.TermBranch, Cond: v, Then: thenID, Else: elseID}, nil)
	return nil
}

var binOpMap = map[minic.Kind]ir.Op{
	minic.Plus: ir.OpAdd, minic.Minus: ir.OpSub, minic.Star: ir.OpMul,
	minic.Slash: ir.OpDiv, minic.Percent: ir.OpRem,
	minic.Amp: ir.OpAnd, minic.Pipe: ir.OpOr, minic.Caret: ir.OpXor,
	minic.Shl: ir.OpShl, minic.Shr: ir.OpShr,
	minic.Lt: ir.OpLt, minic.Le: ir.OpLe, minic.Gt: ir.OpGt, minic.Ge: ir.OpGe,
	minic.EqEq: ir.OpEq, minic.NotEq: ir.OpNe,
}

// expr lowers e and returns the operand holding its value.
func (fl *funcLowerer) expr(e minic.Expr) (ir.Operand, error) {
	switch e := e.(type) {
	case *minic.IntLit:
		return ir.Imm(e.Val), nil
	case *minic.Ident:
		b, ok := fl.scopes.lookup(e.Name)
		switch {
		case !ok:
			return ir.Operand{}, errf(e.Line, "undefined: %q", e.Name)
		case b.kind == bindConst:
			return ir.Imm(b.constVal), nil
		case b.kind == bindScalar:
			return ir.Reg(b.reg), nil
		case b.kind == bindFunc:
			return ir.Operand{}, errf(e.Line, "function %q used as a value", e.Name)
		default:
			return ir.Operand{}, errf(e.Line, "array %q used as a scalar value", e.Name)
		}
	case *minic.IndexExpr:
		b, idx, err := fl.arrayIndex(e)
		if err != nil {
			return ir.Operand{}, err
		}
		dst := fl.fn.NewReg("")
		fl.emit(ir.Instr{Op: ir.OpLoad, Dst: dst, Arr: b.arr, A: idx, Pos: e.Line})
		return ir.Reg(dst), nil
	case *minic.CallExpr:
		return fl.lowerCall(e, true)
	case *minic.UnaryExpr:
		x, err := fl.expr(e.X)
		if err != nil {
			return ir.Operand{}, err
		}
		if x.IsImm() {
			return ir.Imm(evalUnary(e.Op, x.Imm)), nil
		}
		var op ir.Op
		switch e.Op {
		case minic.Minus:
			op = ir.OpNeg
		case minic.Tilde:
			op = ir.OpNot
		case minic.Bang:
			op = ir.OpLNot
		default:
			return ir.Operand{}, fmt.Errorf("lower: %d: bad unary op %s", e.Line, e.Op)
		}
		dst := fl.fn.NewReg("")
		fl.emit(ir.Instr{Op: op, Dst: dst, A: x, Pos: e.Line})
		return ir.Reg(dst), nil
	case *minic.BinaryExpr:
		if e.Op == minic.AndAnd || e.Op == minic.OrOr {
			return fl.materializeCond(e)
		}
		x, err := fl.expr(e.X)
		if err != nil {
			return ir.Operand{}, err
		}
		y, err := fl.expr(e.Y)
		if err != nil {
			return ir.Operand{}, err
		}
		if x.IsImm() && y.IsImm() {
			if v, ok := evalBinary(e.Op, x.Imm, y.Imm); ok {
				return ir.Imm(v), nil
			}
		}
		op, ok := binOpMap[e.Op]
		if !ok {
			return ir.Operand{}, fmt.Errorf("lower: %d: bad binary op %s", e.Line, e.Op)
		}
		dst := fl.fn.NewReg("")
		fl.emit(ir.Instr{Op: op, Dst: dst, A: x, B: y, Pos: e.Line})
		return ir.Reg(dst), nil
	case *minic.CondExpr:
		// result = cond ? then : else via control flow.
		dst := fl.fn.NewReg("")
		thenB := fl.newBlock("cond.then")
		elseB := fl.newBlock("cond.else")
		joinB := fl.newBlock("cond.end")
		if err := fl.condBranch(e.Cond, thenB.ID, elseB.ID); err != nil {
			return ir.Operand{}, err
		}
		fl.cur = thenB
		tv, err := fl.expr(e.Then)
		if err != nil {
			return ir.Operand{}, err
		}
		fl.emitCopy(dst, tv, e.Line)
		fl.jumpTo(joinB)
		fl.cur = elseB
		ev, err := fl.expr(e.Else)
		if err != nil {
			return ir.Operand{}, err
		}
		fl.emitCopy(dst, ev, e.Line)
		fl.jumpTo(joinB)
		fl.cur = joinB
		return ir.Reg(dst), nil
	}
	return ir.Operand{}, fmt.Errorf("lower: unknown expression %T", e)
}

// materializeCond lowers a short-circuit operator in value position to a
// 0/1 register via control flow.
func (fl *funcLowerer) materializeCond(e minic.Expr) (ir.Operand, error) {
	dst := fl.fn.NewReg("")
	trueB := fl.newBlock("bool.true")
	falseB := fl.newBlock("bool.false")
	joinB := fl.newBlock("bool.end")
	if err := fl.condBranch(e, trueB.ID, falseB.ID); err != nil {
		return ir.Operand{}, err
	}
	trueB.Instrs = append(trueB.Instrs, ir.Instr{Op: ir.OpConst, Dst: dst, A: ir.Imm(1), Pos: e.Pos()})
	trueB.Term = ir.Terminator{Kind: ir.TermJump, Then: joinB.ID}
	falseB.Instrs = append(falseB.Instrs, ir.Instr{Op: ir.OpConst, Dst: dst, A: ir.Imm(0), Pos: e.Pos()})
	falseB.Term = ir.Terminator{Kind: ir.TermJump, Then: joinB.ID}
	fl.cur = joinB
	return ir.Reg(dst), nil
}

// lowerCall lowers a call; wantValue selects value or statement context.
func (fl *funcLowerer) lowerCall(e *minic.CallExpr, wantValue bool) (ir.Operand, error) {
	// Calls resolve at global scope, where every function is declared
	// before any body is lowered.
	sig, ok := fl.l.globals[e.Name]
	if !ok || sig.kind != bindFunc {
		return ir.Operand{}, errf(e.Line, "call to undefined function %q", e.Name)
	}
	if wantValue && sig.fn.Void {
		return ir.Operand{}, errf(e.Line, "void function %q used as a value", e.Name)
	}
	if len(e.Args) != len(sig.fn.Params) {
		return ir.Operand{}, errf(e.Line, "%q takes %d arguments, got %d", e.Name, len(sig.fn.Params), len(e.Args))
	}
	in := ir.Instr{Op: ir.OpCall, Callee: e.Name, Pos: e.Line}
	for i, a := range e.Args {
		if !sig.fn.Params[i].IsArray {
			v, err := fl.expr(a)
			if err != nil {
				return ir.Operand{}, err
			}
			in.Args = append(in.Args, v)
			continue
		}
		id, ok := a.(*minic.Ident)
		if !ok {
			return ir.Operand{}, errf(a.Pos(), "argument %d of %q must be an array name", i+1, e.Name)
		}
		b, ok := fl.scopes.lookup(id.Name)
		switch want := sig.inner[i]; {
		case !ok:
			return ir.Operand{}, errf(a.Pos(), "undefined: %q", id.Name)
		case b.kind != bindArray:
			return ir.Operand{}, errf(a.Pos(), "argument %d of %q: %q is not an array", i+1, e.Name, id.Name)
		case rank(b.innerDim) != rank(want):
			return ir.Operand{}, errf(a.Pos(), "argument %d of %q: array dimensionality mismatch", i+1, e.Name)
		case b.innerDim != want:
			return ir.Operand{}, errf(a.Pos(), "argument %d of %q: inner dimension %d, want %d", i+1, e.Name, b.innerDim, want)
		}
		in.ArrArgs = append(in.ArrArgs, b.arr)
	}
	if wantValue {
		in.CallHasDst = true
		in.Dst = fl.fn.NewReg("")
		fl.emit(in)
		return ir.Reg(in.Dst), nil
	}
	fl.emit(in)
	return ir.Operand{}, nil
}

// rank is the number of indices an array with inner dimension innerDim
// takes.
func rank(innerDim int32) int {
	if innerDim > 0 {
		return 2
	}
	return 1
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// evalUnary folds -, ~ or ! applied to x.
func evalUnary(op minic.Kind, x int32) int32 {
	switch op {
	case minic.Minus:
		return -x
	case minic.Tilde:
		return ^x
	}
	return b2i(x == 0)
}

// evalBinary folds x op y as the interpreter computes it, and refuses where
// the interpreter traps. && and || see y's value, so a caller that models
// short-circuiting decides whether y ran.
func evalBinary(op minic.Kind, x, y int32) (int32, bool) {
	switch op {
	case minic.Plus:
		return x + y, true
	case minic.Minus:
		return x - y, true
	case minic.Star:
		return x * y, true
	case minic.Slash:
		if y == 0 || (x == -1<<31 && y == -1) {
			return 0, false
		}
		return x / y, true
	case minic.Percent:
		if y == 0 || (x == -1<<31 && y == -1) {
			return 0, false
		}
		return x % y, true
	case minic.Amp:
		return x & y, true
	case minic.Pipe:
		return x | y, true
	case minic.Caret:
		return x ^ y, true
	case minic.Shl:
		return x << (uint32(y) & 31), true
	case minic.Shr:
		return x >> (uint32(y) & 31), true
	case minic.Lt:
		return b2i(x < y), true
	case minic.Le:
		return b2i(x <= y), true
	case minic.Gt:
		return b2i(x > y), true
	case minic.Ge:
		return b2i(x >= y), true
	case minic.EqEq:
		return b2i(x == y), true
	case minic.NotEq:
		return b2i(x != y), true
	case minic.AndAnd:
		return b2i(x != 0 && y != 0), true
	case minic.OrOr:
		return b2i(x != 0 || y != 0), true
	}
	return 0, false
}
