package minic

// MaxArrayLen bounds the element count of one declared array, and of all
// global and local array declarations of a program together. Arrays are
// allocated whole when a program runs, so the bound keeps a declaration —
// or many of them — from demanding gigabytes (or overflowing the int32
// length of a 2-D array).
const MaxArrayLen = 1 << 24

// MaxBlockInstrs bounds the instructions of one basic block of the
// flattened (fully inlined) entry function; hybridpart.Compile enforces it
// once inlining has fixed the block sizes. The coarse-grain list scheduler
// is roughly quadratic in a block's size and runs on every block of a
// freshly compiled application, so one huge straight-line block would make
// an unbounded request. At the cap it schedules in a few milliseconds; the
// built-in benchmarks' largest blocks hold about 50 instructions.
const MaxBlockInstrs = 512

// Parser is a recursive-descent parser producing the AST.
type Parser struct {
	toks []Token
	pos  int
	// consts collects const int values seen so far so array dimensions can
	// be folded during parsing.
	consts map[string]int32
	// arrayElems sums the elements of every array declared so far.
	arrayElems int64
}

// Parse lexes and parses src into a File.
func Parse(src string) (*File, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, consts: map[string]int32{}}
	return p.parseFile()
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) at(k Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k Kind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errf(t.Line, t.Col, "expected %s, found %s", k, t)
	}
	p.pos++
	return t, nil
}

func (p *Parser) parseFile() (*File, error) {
	f := &File{}
	for !p.at(EOF) {
		isConst := p.accept(KwConst)
		t := p.cur()
		switch t.Kind {
		case KwInt:
			p.next()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if p.at(LParen) {
				if isConst {
					return nil, errf(t.Line, t.Col, "const function declarations are not supported")
				}
				fd, err := p.parseFuncRest(name.Text, false, t.Line)
				if err != nil {
					return nil, err
				}
				f.Decls = append(f.Decls, fd)
			} else {
				decls, err := p.parseVarRest(name, isConst, true)
				if err != nil {
					return nil, err
				}
				for _, d := range decls {
					f.Decls = append(f.Decls, d)
				}
			}
		case KwVoid:
			if isConst {
				return nil, errf(t.Line, t.Col, "const void is not a type")
			}
			p.next()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if !p.at(LParen) {
				return nil, errf(t.Line, t.Col, "void is only valid as a function return type")
			}
			fd, err := p.parseFuncRest(name.Text, true, t.Line)
			if err != nil {
				return nil, err
			}
			f.Decls = append(f.Decls, fd)
		default:
			return nil, errf(t.Line, t.Col, "expected declaration, found %s", t)
		}
	}
	return f, nil
}

// parseFuncRest parses "(params) { body }" after `int|void name`.
func (p *Parser) parseFuncRest(name string, void bool, line int) (*FuncDecl, error) {
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	fd := &FuncDecl{Name: name, Void: void, Line: line}
	if !p.accept(RParen) {
		for {
			prm, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			fd.Params = append(fd.Params, prm)
			if p.accept(RParen) {
				break
			}
			if _, err := p.expect(Comma); err != nil {
				return nil, err
			}
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

func (p *Parser) parseParam() (ParamDecl, error) {
	t := p.cur()
	if _, err := p.expect(KwInt); err != nil {
		return ParamDecl{}, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return ParamDecl{}, err
	}
	prm := ParamDecl{Name: name.Text, Line: t.Line}
	if p.accept(LBrack) {
		prm.IsArray = true
		// `int a[]` or `int a[N]` (outer dim ignored, by-reference).
		if !p.at(RBrack) {
			if _, err := p.parseConstExpr(); err != nil {
				return ParamDecl{}, err
			}
		}
		if _, err := p.expect(RBrack); err != nil {
			return ParamDecl{}, err
		}
		if p.accept(LBrack) {
			dim, err := p.parseConstExpr()
			if err != nil {
				return ParamDecl{}, err
			}
			if dim <= 0 {
				return ParamDecl{}, errf(t.Line, t.Col, "inner array dimension must be positive")
			}
			prm.InnerDim = dim
			if _, err := p.expect(RBrack); err != nil {
				return ParamDecl{}, err
			}
		}
	}
	return prm, nil
}

// parseVarRest parses declarators after `[const] int name`, through `;`.
func (p *Parser) parseVarRest(first Token, isConst, global bool) ([]*VarDecl, error) {
	var out []*VarDecl
	name := first
	for {
		d := &VarDecl{Name: name.Text, IsConst: isConst, IsGlobal: global, Line: name.Line}
		for len(d.Dims) < 2 && p.accept(LBrack) {
			dim, err := p.parseConstExpr()
			if err != nil {
				return nil, err
			}
			if dim <= 0 {
				return nil, errf(name.Line, name.Col, "array dimension must be positive")
			}
			d.Dims = append(d.Dims, dim)
			if _, err := p.expect(RBrack); err != nil {
				return nil, err
			}
		}
		if p.at(LBrack) {
			return nil, errf(name.Line, name.Col, "arrays of more than two dimensions are not supported")
		}
		if len(d.Dims) > 0 {
			n := int64(d.Dims[0])
			if len(d.Dims) == 2 {
				n *= int64(d.Dims[1])
			}
			if n > MaxArrayLen {
				return nil, errf(name.Line, name.Col, "array %s has %d elements, over the limit of %d", d.Name, n, MaxArrayLen)
			}
			p.arrayElems += n
			if p.arrayElems > MaxArrayLen {
				return nil, errf(name.Line, name.Col, "array %s brings the program's declared array elements to %d, over the limit of %d", d.Name, p.arrayElems, MaxArrayLen)
			}
		}
		if p.accept(Assign) {
			if p.accept(LBrace) {
				if len(d.Dims) == 0 {
					return nil, errf(name.Line, name.Col, "brace initializer on scalar %s", d.Name)
				}
				for !p.accept(RBrace) {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					d.ArrInit = append(d.ArrInit, e)
					if !p.at(RBrace) {
						if _, err := p.expect(Comma); err != nil {
							return nil, err
						}
					}
				}
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if len(d.Dims) > 0 {
					return nil, errf(name.Line, name.Col, "scalar initializer on array %s", d.Name)
				}
				d.Init = e
			}
		}
		if isConst {
			if d.Init == nil || len(d.Dims) > 0 {
				return nil, errf(name.Line, name.Col, "const %s requires a scalar initializer", d.Name)
			}
			v, ok := p.foldConst(d.Init)
			if !ok {
				return nil, errf(name.Line, name.Col, "const %s initializer is not a constant expression", d.Name)
			}
			p.consts[d.Name] = v
			d.Init = &IntLit{Val: v, Line: d.Line}
		}
		out = append(out, d)
		if p.accept(Semi) {
			return out, nil
		}
		if _, err := p.expect(Comma); err != nil {
			return nil, err
		}
		n, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		name = n
	}
}

// parseConstExpr parses an expression and requires it to fold to a constant.
func (p *Parser) parseConstExpr() (int32, error) {
	t := p.cur()
	e, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	v, ok := p.foldConst(e)
	if !ok {
		return 0, errf(t.Line, t.Col, "expression is not compile-time constant")
	}
	return v, nil
}

// foldConst evaluates e if it only involves literals and known const ints.
func (p *Parser) foldConst(e Expr) (int32, bool) {
	switch e := e.(type) {
	case *IntLit:
		return e.Val, true
	case *Ident:
		v, ok := p.consts[e.Name]
		return v, ok
	case *UnaryExpr:
		x, ok := p.foldConst(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case Minus:
			return -x, true
		case Tilde:
			return ^x, true
		case Bang:
			if x == 0 {
				return 1, true
			}
			return 0, true
		}
	case *BinaryExpr:
		x, ok := p.foldConst(e.X)
		if !ok {
			return 0, false
		}
		y, ok := p.foldConst(e.Y)
		if !ok {
			return 0, false
		}
		return foldBinary(e.Op, x, y)
	case *CondExpr:
		c, ok := p.foldConst(e.Cond)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return p.foldConst(e.Then)
		}
		return p.foldConst(e.Else)
	}
	return 0, false
}

func foldBinary(op Kind, x, y int32) (int32, bool) {
	b2i := func(b bool) int32 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case Plus:
		return x + y, true
	case Minus:
		return x - y, true
	case Star:
		return x * y, true
	case Slash:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case Percent:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case Amp:
		return x & y, true
	case Pipe:
		return x | y, true
	case Caret:
		return x ^ y, true
	case Shl:
		return x << (uint32(y) & 31), true
	case Shr:
		return x >> (uint32(y) & 31), true
	case Lt:
		return b2i(x < y), true
	case Le:
		return b2i(x <= y), true
	case Gt:
		return b2i(x > y), true
	case Ge:
		return b2i(x >= y), true
	case EqEq:
		return b2i(x == y), true
	case NotEq:
		return b2i(x != y), true
	case AndAnd:
		return b2i(x != 0 && y != 0), true
	case OrOr:
		return b2i(x != 0 || y != 0), true
	}
	return 0, false
}

func (p *Parser) parseBlock() (*BlockStmt, error) {
	lb, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	blk := &BlockStmt{Line: lb.Line}
	for !p.accept(RBrace) {
		if p.at(EOF) {
			return nil, errf(lb.Line, lb.Col, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.List = append(blk.List, s)
	}
	return blk, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case KwConst, KwInt:
		isConst := p.accept(KwConst)
		if _, err := p.expect(KwInt); err != nil {
			return nil, err
		}
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		decls, err := p.parseVarRest(name, isConst, false)
		if err != nil {
			return nil, err
		}
		return &DeclStmt{Decls: decls, Line: t.Line}, nil
	case LBrace:
		return p.parseBlock()
	case Semi:
		p.next()
		return &EmptyStmt{Line: t.Line}, nil
	case KwIf:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept(KwElse) {
			if els, err = p.parseStmt(); err != nil {
				return nil, err
			}
		}
		return &IfStmt{Cond: cond, Then: then, Else: els, Line: t.Line}, nil
	case KwWhile:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: t.Line}, nil
	case KwDo:
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KwWhile); err != nil {
			return nil, err
		}
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &DoWhileStmt{Body: body, Cond: cond, Line: t.Line}, nil
	case KwFor:
		return p.parseFor()
	case KwReturn:
		p.next()
		if p.accept(Semi) {
			return &ReturnStmt{Line: t.Line}, nil
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ReturnStmt{X: x, Line: t.Line}, nil
	case KwBreak:
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &BreakStmt{Line: t.Line}, nil
	case KwContinue:
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ContinueStmt{Line: t.Line}, nil
	}
	s, err := p.parseSimpleStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next() // for
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	fs := &ForStmt{Line: t.Line}
	if !p.accept(Semi) {
		if p.at(KwInt) {
			p.next()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			decls, err := p.parseVarRest(name, false, false)
			if err != nil {
				return nil, err
			}
			fs.Init = &DeclStmt{Decls: decls, Line: t.Line}
		} else {
			s, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			fs.Init = s
			if _, err := p.expect(Semi); err != nil {
				return nil, err
			}
		}
	}
	if !p.accept(Semi) {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Cond = cond
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
	}
	if !p.at(RParen) {
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		fs.Post = s
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	return fs, nil
}

// parseSimpleStmt parses an assignment, inc/dec or call statement (no
// trailing semicolon).
func (p *Parser) parseSimpleStmt() (Stmt, error) {
	t := p.cur()
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch k := p.cur().Kind; k {
	case Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign,
		PercentAssign, ShlAssign, ShrAssign, AmpAssign, PipeAssign, CaretAssign:
		if !isLvalue(lhs) {
			return nil, errf(t.Line, t.Col, "left side of assignment is not assignable")
		}
		p.next()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Op: k, LHS: lhs, RHS: rhs, Line: t.Line}, nil
	case Inc, Dec:
		if !isLvalue(lhs) {
			return nil, errf(t.Line, t.Col, "operand of %s is not assignable", k)
		}
		p.next()
		return &IncDecStmt{Op: k, LHS: lhs, Line: t.Line}, nil
	}
	if _, ok := lhs.(*CallExpr); ok {
		return &ExprStmt{X: lhs, Line: t.Line}, nil
	}
	return nil, errf(t.Line, t.Col, "expression statement has no effect")
}

func isLvalue(e Expr) bool {
	switch e.(type) {
	case *Ident, *IndexExpr:
		return true
	}
	return false
}

// Expression parsing: precedence climbing mirroring C.

var binPrec = map[Kind]int{
	OrOr:   1,
	AndAnd: 2,
	Pipe:   3,
	Caret:  4,
	Amp:    5,
	EqEq:   6, NotEq: 6,
	Lt: 7, Le: 7, Gt: 7, Ge: 7,
	Shl: 8, Shr: 8,
	Plus: 9, Minus: 9,
	Star: 10, Slash: 10, Percent: 10,
}

func (p *Parser) parseExpr() (Expr, error) { return p.parseTernary() }

func (p *Parser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.at(Question) {
		return cond, nil
	}
	q := p.next()
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Colon); err != nil {
		return nil, err
	}
	els, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &CondExpr{Cond: cond, Then: then, Else: els, Line: q.Line}, nil
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		prec, ok := binPrec[t.Kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Op: t.Kind, X: lhs, Y: rhs, Line: t.Line}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case Minus, Tilde, Bang:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.Kind, X: x, Line: t.Line}, nil
	case Plus:
		p.next()
		return p.parseUnary()
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case INTLIT:
		p.next()
		return &IntLit{Val: t.Val, Line: t.Line}, nil
	case LParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return e, nil
	case IDENT:
		p.next()
		switch p.cur().Kind {
		case LParen:
			p.next()
			call := &CallExpr{Name: t.Text, Line: t.Line}
			if !p.accept(RParen) {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.accept(RParen) {
						break
					}
					if _, err := p.expect(Comma); err != nil {
						return nil, err
					}
				}
			}
			return call, nil
		case LBrack:
			p.next()
			i, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBrack); err != nil {
				return nil, err
			}
			ix := &IndexExpr{Name: t.Text, I: i, Line: t.Line}
			if p.accept(LBrack) {
				j, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(RBrack); err != nil {
					return nil, err
				}
				ix.J = j
			}
			return ix, nil
		}
		return &Ident{Name: t.Text, Line: t.Line}, nil
	}
	return nil, errf(t.Line, t.Col, "expected expression, found %s", t)
}
