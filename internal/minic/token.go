// Package minic implements the syntax half of the frontend for the C
// subset in which the benchmark applications are written: lexer,
// recursive-descent parser and AST. The parser checks syntax only; name
// resolution, the semantic checks and constant folding (const initializers,
// array dimensions and their size limits) are one pass in package lower,
// which turns the AST into the CDFG input. Together they stand in for the
// paper's SUIF2/MachineSUIF + Lex toolchain.
//
// Supported subset: 32-bit signed int scalars, one- and two-dimensional int
// arrays, const int compile-time constants, functions returning int or void,
// the full C integer operator set (including ?:, && and || with
// short-circuit semantics), if/else, for, while, do-while, break, continue.
// Pointers, floats, structs and preprocessing are intentionally absent; the
// DSP kernels the methodology targets are fixed-point integer code.
package minic

import "fmt"

// Kind identifies a token class.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	INTLIT

	// Keywords.
	KwInt
	KwVoid
	KwConst
	KwIf
	KwElse
	KwFor
	KwWhile
	KwDo
	KwReturn
	KwBreak
	KwContinue

	// Punctuation.
	LParen
	RParen
	LBrace
	RBrace
	LBrack
	RBrack
	Semi
	Comma
	Question
	Colon

	// Operators.
	Plus
	Minus
	Star
	Slash
	Percent
	Amp
	Pipe
	Caret
	Tilde
	Bang
	Shl
	Shr
	Lt
	Le
	Gt
	Ge
	EqEq
	NotEq
	AndAnd
	OrOr

	// Assignment operators.
	Assign
	PlusAssign
	MinusAssign
	StarAssign
	SlashAssign
	PercentAssign
	ShlAssign
	ShrAssign
	AmpAssign
	PipeAssign
	CaretAssign

	Inc
	Dec
)

var kindNames = map[Kind]string{
	EOF: "EOF", IDENT: "identifier", INTLIT: "integer literal",
	KwInt: "int", KwVoid: "void", KwConst: "const", KwIf: "if", KwElse: "else",
	KwFor: "for", KwWhile: "while", KwDo: "do", KwReturn: "return",
	KwBreak: "break", KwContinue: "continue",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBrack: "[", RBrack: "]", Semi: ";", Comma: ",", Question: "?", Colon: ":",
	Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
	Amp: "&", Pipe: "|", Caret: "^", Tilde: "~", Bang: "!",
	Shl: "<<", Shr: ">>", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
	EqEq: "==", NotEq: "!=", AndAnd: "&&", OrOr: "||",
	Assign: "=", PlusAssign: "+=", MinusAssign: "-=", StarAssign: "*=",
	SlashAssign: "/=", PercentAssign: "%=", ShlAssign: "<<=", ShrAssign: ">>=",
	AmpAssign: "&=", PipeAssign: "|=", CaretAssign: "^=",
	Inc: "++", Dec: "--",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

var keywords = map[string]Kind{
	"int": KwInt, "void": KwVoid, "const": KwConst, "if": KwIf, "else": KwElse,
	"for": KwFor, "while": KwWhile, "do": KwDo, "return": KwReturn,
	"break": KwBreak, "continue": KwContinue,
}

// Token is one lexical token with its source position.
type Token struct {
	Kind Kind
	Text string // identifiers and literals
	Val  int32  // INTLIT value
	Line int    // 1-based
	Col  int    // 1-based
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT:
		return fmt.Sprintf("%s(%s)", t.Kind, t.Text)
	case INTLIT:
		return fmt.Sprintf("%d", t.Val)
	default:
		return t.Kind.String()
	}
}

// Error is a frontend diagnostic carrying a source position.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errf(line, col int, format string, args ...interface{}) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}
