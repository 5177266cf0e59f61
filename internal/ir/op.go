// Package ir defines the intermediate representation consumed by every stage
// of the partitioning methodology: a three-address-code control-flow graph
// (the CDFG of the paper) whose basic blocks expose per-block data-flow
// graphs (DFGs) for the fine- and coarse-grain mappers.
package ir

import "fmt"

// Op identifies the operation performed by an Instr.
type Op uint8

// Operation set. The benchmark DFGs contain only ALU-class operations,
// multiplications and memory accesses (the paper notes the absence of
// divisions); Div/Rem exist for frontend completeness and trap handling.
const (
	OpInvalid Op = iota

	// Value-producing ALU operations.
	OpConst // dst = imm
	OpCopy  // dst = a
	OpAdd   // dst = a + b
	OpSub   // dst = a - b
	OpNeg   // dst = -a
	OpAnd   // dst = a & b
	OpOr    // dst = a | b
	OpXor   // dst = a ^ b
	OpNot   // dst = ^a (bitwise complement)
	OpShl   // dst = a << b
	OpShr   // dst = a >> b (arithmetic)
	OpEq    // dst = a == b ? 1 : 0
	OpNe    // dst = a != b ? 1 : 0
	OpLt    // dst = a < b ? 1 : 0
	OpLe    // dst = a <= b ? 1 : 0
	OpGt    // dst = a > b ? 1 : 0
	OpGe    // dst = a >= b ? 1 : 0
	OpLNot  // dst = a == 0 ? 1 : 0 (logical not)

	// Multiplier-class operations.
	OpMul // dst = a * b

	// Divider-class operations (frontend completeness; absent from the
	// benchmark kernels, mapped with their own latency/area entries).
	OpDiv // dst = a / b (traps on b == 0)
	OpRem // dst = a % b (traps on b == 0)

	// Memory operations against a named array in the shared data memory.
	OpLoad  // dst = arr[a]
	OpStore // arr[a] = b

	// Call invokes another function of the program. The lowering pipeline
	// inlines all calls before mapping, so mappers normally never see one;
	// the interpreter supports them directly.
	OpCall // dst = callee(args...)

	opMax
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpConst:   "const",
	OpCopy:    "copy",
	OpAdd:     "add",
	OpSub:     "sub",
	OpNeg:     "neg",
	OpAnd:     "and",
	OpOr:      "or",
	OpXor:     "xor",
	OpNot:     "not",
	OpShl:     "shl",
	OpShr:     "shr",
	OpEq:      "eq",
	OpNe:      "ne",
	OpLt:      "lt",
	OpLe:      "le",
	OpGt:      "gt",
	OpGe:      "ge",
	OpLNot:    "lnot",
	OpMul:     "mul",
	OpDiv:     "div",
	OpRem:     "rem",
	OpLoad:    "load",
	OpStore:   "store",
	OpCall:    "call",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Class groups operations by the hardware resource that executes them.
type Class uint8

// Resource classes used by characterization tables and the mappers.
const (
	ClassALU  Class = iota // add/sub/logic/shift/compare/copy/const
	ClassMul               // multiplier
	ClassDiv               // divider (rare)
	ClassMem               // shared-data-memory access
	ClassCall              // function call (barrier for mapping)
)

var classNames = [...]string{"alu", "mul", "div", "mem", "call"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassOf reports the resource class executing op.
func ClassOf(op Op) Class {
	switch op {
	case OpMul:
		return ClassMul
	case OpDiv, OpRem:
		return ClassDiv
	case OpLoad, OpStore:
		return ClassMem
	case OpCall:
		return ClassCall
	default:
		return ClassALU
	}
}

// HasDst reports whether op always writes a destination register. Calls are
// excluded here because void calls write nothing; use Instr.HasDst, which
// also consults the call's result flag.
func (op Op) HasDst() bool {
	switch op {
	case OpStore, OpInvalid, OpCall:
		return false
	}
	return true
}
