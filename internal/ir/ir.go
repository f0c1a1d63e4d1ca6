// Package ir defines the instruction set of the synthetic target machine
// shared by the compiler (internal/compiler), the disassembler
// (internal/disasm), and the symbolic tracelet extractor (internal/objtrace).
//
// The machine is a small register machine with an MSVC-flavoured calling
// convention: the receiver of a method call travels in a dedicated register
// (RegThis, the analogue of ECX under thiscall), up to six arguments travel
// in RegArg0..RegArg5, and results return in RegRet. Code addresses are
// absolute; every instruction occupies exactly InstSize bytes, so the
// address of instruction i of a function with entry e is e + i*InstSize.
package ir

import (
	"encoding/binary"
	"fmt"
)

// Reg is a machine register.
type Reg uint8

// Register conventions.
const (
	// RegThis carries the receiver ("this") into calls, like ECX under the
	// MSVC thiscall convention.
	RegThis Reg = 0
	// RegRet carries function results (and the fresh pointer returned by
	// the allocator import).
	RegRet Reg = 1
	// RegArg0 is the first of six argument registers RegArg0..RegArg0+5.
	RegArg0 Reg = 2
	// NumArgRegs is the number of argument registers.
	NumArgRegs = 6
	// RegTmp0 is the first caller-local scratch register; the compiler
	// allocates locals upward from here.
	RegTmp0 Reg = 8
	// NumRegs is the size of the register file.
	NumRegs = 64
)

// ArgReg returns the i-th argument register.
func ArgReg(i int) Reg { return RegArg0 + Reg(i) }

// Op is an opcode.
type Op uint8

// Opcodes. The immediate (Imm) and offset (Off) interpretation is noted per
// opcode.
const (
	// OpNop does nothing.
	OpNop Op = iota
	// OpMovImm: rd = Imm (an opaque scalar constant).
	OpMovImm
	// OpMovReg: rd = rs.
	OpMovReg
	// OpLea: rd = Imm, where Imm is an absolute address (of a vtable, a
	// function, or a global). Distinguished from OpMovImm so that address
	// formation is recognizable, as it is in real code via relocations.
	OpLea
	// OpLoad: rd = [rs + Off].
	OpLoad
	// OpStore: [rd + Off] = rs.
	OpStore
	// OpCall: direct call to absolute address Imm. Arguments are in the
	// argument registers, the receiver (if any) in RegThis; the result
	// appears in RegRet.
	OpCall
	// OpCallInd: indirect call through register rs.
	OpCallInd
	// OpRet: return; the result (if any) is in RegRet.
	OpRet
	// OpJmp: unconditional jump to absolute address Imm.
	OpJmp
	// OpBr: conditional branch on rs to absolute address Imm; the condition
	// value is opaque to the analyses, which explore both outcomes.
	OpBr
	// OpArith: rd = op(rs, Imm) for an opaque arithmetic operation. The
	// result is a scalar.
	OpArith
	numOps
)

var opNames = [...]string{
	OpNop:     "nop",
	OpMovImm:  "movi",
	OpMovReg:  "mov",
	OpLea:     "lea",
	OpLoad:    "load",
	OpStore:   "store",
	OpCall:    "call",
	OpCallInd: "calli",
	OpRet:     "ret",
	OpJmp:     "jmp",
	OpBr:      "br",
	OpArith:   "arith",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// Inst is a single machine instruction.
type Inst struct {
	Op  Op
	Rd  Reg
	Rs  Reg
	Off int32
	Imm uint64
}

// InstSize is the fixed encoded size of an instruction in bytes.
const InstSize = 16

// Encode writes the instruction into b, which must be at least InstSize
// bytes long.
func (in Inst) Encode(b []byte) {
	b[0] = byte(in.Op)
	b[1] = byte(in.Rd)
	b[2] = byte(in.Rs)
	b[3] = 0
	binary.LittleEndian.PutUint32(b[4:8], uint32(in.Off))
	binary.LittleEndian.PutUint64(b[8:16], in.Imm)
}

// Decode parses one instruction from b, which must be at least InstSize
// bytes long. It returns an error for undefined opcodes or malformed
// padding, so that scanning non-code bytes fails loudly.
func Decode(b []byte) (Inst, error) {
	var in Inst
	if len(b) < InstSize {
		return in, fmt.Errorf("ir: truncated instruction (%d bytes)", len(b))
	}
	in.Op = Op(b[0])
	if !in.Op.Valid() {
		return in, fmt.Errorf("ir: invalid opcode %d", b[0])
	}
	if b[3] != 0 {
		return in, fmt.Errorf("ir: nonzero padding byte")
	}
	in.Rd = Reg(b[1])
	in.Rs = Reg(b[2])
	if in.Rd >= NumRegs || in.Rs >= NumRegs {
		return in, fmt.Errorf("ir: register out of range (rd=%d rs=%d)", in.Rd, in.Rs)
	}
	in.Off = int32(binary.LittleEndian.Uint32(b[4:8]))
	in.Imm = binary.LittleEndian.Uint64(b[8:16])
	return in, nil
}

// String renders the instruction in a readable assembly-like form.
func (in Inst) String() string {
	switch in.Op {
	case OpNop:
		return "nop"
	case OpMovImm:
		return fmt.Sprintf("movi r%d, %d", in.Rd, in.Imm)
	case OpMovReg:
		return fmt.Sprintf("mov r%d, r%d", in.Rd, in.Rs)
	case OpLea:
		return fmt.Sprintf("lea r%d, 0x%x", in.Rd, in.Imm)
	case OpLoad:
		return fmt.Sprintf("load r%d, [r%d+%d]", in.Rd, in.Rs, in.Off)
	case OpStore:
		return fmt.Sprintf("store [r%d+%d], r%d", in.Rd, in.Off, in.Rs)
	case OpCall:
		return fmt.Sprintf("call 0x%x", in.Imm)
	case OpCallInd:
		return fmt.Sprintf("calli r%d", in.Rs)
	case OpRet:
		return "ret"
	case OpJmp:
		return fmt.Sprintf("jmp 0x%x", in.Imm)
	case OpBr:
		return fmt.Sprintf("br r%d, 0x%x", in.Rs, in.Imm)
	case OpArith:
		return fmt.Sprintf("arith r%d, r%d, %d", in.Rd, in.Rs, in.Imm)
	}
	return fmt.Sprintf("?%d", in.Op)
}

// Function is a decoded function: a contiguous run of instructions starting
// at Entry.
type Function struct {
	Entry uint64
	Insts []Inst
}

// AddrOf returns the address of instruction index i.
func (f *Function) AddrOf(i int) uint64 { return f.Entry + uint64(i)*InstSize }

// IndexOf returns the instruction index for address a, or -1 if a is not an
// instruction boundary within f.
func (f *Function) IndexOf(a uint64) int {
	if a < f.Entry {
		return -1
	}
	d := a - f.Entry
	if d%InstSize != 0 {
		return -1
	}
	i := int(d / InstSize)
	if i >= len(f.Insts) {
		return -1
	}
	return i
}

// String renders the function with addresses.
func (f *Function) String() string {
	s := fmt.Sprintf("func@0x%x:\n", f.Entry)
	for i, in := range f.Insts {
		s += fmt.Sprintf("  0x%x: %s\n", f.AddrOf(i), in.String())
	}
	return s
}
