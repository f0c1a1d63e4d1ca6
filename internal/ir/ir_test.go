package ir

import (
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, rd, rs uint8, off int32, imm uint64) bool {
		in := Inst{Op: Op(op % uint8(numOps)), Rd: Reg(rd % NumRegs), Rs: Reg(rs % NumRegs), Off: off, Imm: imm}
		var b [InstSize]byte
		in.Encode(b[:])
		out, err := Decode(b[:])
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var b [InstSize]byte
	b[0] = byte(numOps) + 3 // invalid opcode
	if _, err := Decode(b[:]); err == nil {
		t.Error("invalid opcode accepted")
	}
	b[0] = byte(OpNop)
	b[3] = 1 // nonzero padding
	if _, err := Decode(b[:]); err == nil {
		t.Error("nonzero padding accepted")
	}
	if _, err := Decode(b[:4]); err == nil {
		t.Error("truncated instruction accepted")
	}
	var c [InstSize]byte
	c[1] = NumRegs // register out of range
	if _, err := Decode(c[:]); err == nil {
		t.Error("out-of-range register accepted")
	}
}

func TestFunctionAddressing(t *testing.T) {
	f := &Function{Entry: 0x1000, Insts: make([]Inst, 4)}
	if f.AddrOf(2) != 0x1000+2*InstSize {
		t.Error("AddrOf wrong")
	}
	if f.IndexOf(0x1000+3*InstSize) != 3 {
		t.Error("IndexOf wrong")
	}
	if f.IndexOf(0x1000+1) != -1 {
		t.Error("unaligned address accepted")
	}
	if f.IndexOf(0x1000+4*InstSize) != -1 {
		t.Error("past-the-end address accepted")
	}
	if f.IndexOf(0xfff) != -1 {
		t.Error("address before entry accepted")
	}
}

func TestStringsAreStable(t *testing.T) {
	ins := []Inst{
		{Op: OpMovImm, Rd: 3, Imm: 7},
		{Op: OpLoad, Rd: 1, Rs: 2, Off: 8},
		{Op: OpStore, Rd: 2, Rs: 1, Off: 16},
		{Op: OpCall, Imm: 0x401000},
		{Op: OpCallInd, Rs: 5},
		{Op: OpRet},
	}
	want := []string{
		"movi r3, 7", "load r1, [r2+8]", "store [r2+16], r1",
		"call 0x401000", "calli r5", "ret",
	}
	for i, in := range ins {
		if in.String() != want[i] {
			t.Errorf("String() = %q, want %q", in.String(), want[i])
		}
	}
}
