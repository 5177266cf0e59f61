package minic

// File is a parsed translation unit.
type File struct {
	Decls []Decl
}

// Decl is a top-level declaration: a function or a (possibly const) variable.
type Decl interface{ declNode() }

// FuncDecl declares a function.
type FuncDecl struct {
	Name   string
	Void   bool
	Params []ParamDecl
	Body   *BlockStmt
	Line   int
}

// ParamDecl declares one formal parameter. Arrays are passed by reference;
// two-dimensional array parameters carry their inner dimension so indexing
// can be lowered (`int m[][8]`). Both dimensions are unfolded constant
// expressions; the outer one is optional and only checked.
type ParamDecl struct {
	Name     string
	IsArray  bool
	OuterDim Expr // nil for `int a[]` and scalars
	InnerDim Expr // nil for scalar and 1-D array params
	Line     int
}

// VarDecl declares a scalar or array variable. Dims is empty for scalars,
// has one entry for 1-D arrays, two for 2-D; each is an unfolded constant
// expression. A const scalar must have a compile-time constant initializer
// and participates in constant expressions (array dimensions in particular).
type VarDecl struct {
	Name     string
	Dims     []Expr
	Init     Expr   // scalar initializer (may be nil)
	ArrInit  []Expr // array initializer list (may be nil)
	IsConst  bool
	IsGlobal bool
	Line     int
}

func (*FuncDecl) declNode() {}
func (*VarDecl) declNode()  {}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// BlockStmt is a `{ ... }` statement list (declarations allowed anywhere).
type BlockStmt struct {
	List []Stmt
	Line int
}

// DeclStmt wraps local variable declarations in statement position.
type DeclStmt struct {
	Decls []*VarDecl
	Line  int
}

// AssignStmt performs `LHS op= RHS`; Op is Assign for plain assignment.
type AssignStmt struct {
	Op   Kind // Assign, PlusAssign, ...
	LHS  Expr // Ident or IndexExpr
	RHS  Expr
	Line int
}

// IncDecStmt is `LHS++` or `LHS--`.
type IncDecStmt struct {
	Op   Kind // Inc or Dec
	LHS  Expr
	Line int
}

// ExprStmt evaluates an expression for its side effects (calls).
type ExprStmt struct {
	X    Expr
	Line int
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	Line int
}

// ForStmt is a C for loop; Init/Post may be nil, Cond may be nil (infinite).
type ForStmt struct {
	Init Stmt // AssignStmt, IncDecStmt or DeclStmt
	Cond Expr
	Post Stmt
	Body Stmt
	Line int
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body Stmt
	Line int
}

// DoWhileStmt is a do { } while loop.
type DoWhileStmt struct {
	Body Stmt
	Cond Expr
	Line int
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	X    Expr // nil for void return
	Line int
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Line int }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Line int }

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ Line int }

func (*BlockStmt) stmtNode()    {}
func (*DeclStmt) stmtNode()     {}
func (*AssignStmt) stmtNode()   {}
func (*IncDecStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*DoWhileStmt) stmtNode()  {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*EmptyStmt) stmtNode()    {}

// Expr is an expression node.
type Expr interface {
	exprNode()
	Pos() int
}

// IntLit is an integer literal.
type IntLit struct {
	Val  int32
	Line int
}

// Ident references a scalar variable, const, or array (in call args).
type Ident struct {
	Name string
	Line int
}

// IndexExpr is a[i] or a[i][j].
type IndexExpr struct {
	Name string
	I    Expr
	J    Expr // nil for 1-D access
	Line int
}

// CallExpr calls a function.
type CallExpr struct {
	Name string
	Args []Expr
	Line int
}

// UnaryExpr applies Minus, Tilde or Bang.
type UnaryExpr struct {
	Op   Kind
	X    Expr
	Line int
}

// BinaryExpr applies a binary operator; AndAnd/OrOr short-circuit.
type BinaryExpr struct {
	Op   Kind
	X, Y Expr
	Line int
}

// CondExpr is the ternary `Cond ? Then : Else`.
type CondExpr struct {
	Cond, Then, Else Expr
	Line             int
}

func (*IntLit) exprNode()     {}
func (*Ident) exprNode()      {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*CondExpr) exprNode()   {}

func (e *IntLit) Pos() int     { return e.Line }
func (e *Ident) Pos() int      { return e.Line }
func (e *IndexExpr) Pos() int  { return e.Line }
func (e *CallExpr) Pos() int   { return e.Line }
func (e *UnaryExpr) Pos() int  { return e.Line }
func (e *BinaryExpr) Pos() int { return e.Line }
func (e *CondExpr) Pos() int   { return e.Line }
