package vtable

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/image"
	"repro/internal/ir"
)

// handImage builds an image by hand: two functions, rodata holding one
// referenced two-slot vtable, one referenced non-table word, and one
// unreferenced table.
func handImage() *image.Image {
	fnA := image.CodeBase
	var code []byte
	emit := func(in ir.Inst) {
		var b [ir.InstSize]byte
		in.Encode(b[:])
		code = append(code, b[:]...)
	}
	vt1 := image.RodataBase
	junk := image.RodataBase + 24
	// Function A references vt1 and the junk word, then returns.
	emit(ir.Inst{Op: ir.OpLea, Rd: 8, Imm: vt1})
	emit(ir.Inst{Op: ir.OpLea, Rd: 9, Imm: junk})
	emit(ir.Inst{Op: ir.OpRet})
	fnB := image.CodeBase + uint64(len(code))
	emit(ir.Inst{Op: ir.OpRet})

	rodata := make([]byte, 48)
	binary.LittleEndian.PutUint64(rodata[0:], fnA)  // vt1[0]
	binary.LittleEndian.PutUint64(rodata[8:], fnB)  // vt1[1]
	binary.LittleEndian.PutUint64(rodata[16:], 0)   // separator
	binary.LittleEndian.PutUint64(rodata[24:], 42)  // junk (referenced, not a table)
	binary.LittleEndian.PutUint64(rodata[32:], fnA) // unreferenced table
	binary.LittleEndian.PutUint64(rodata[40:], fnB)

	return &image.Image{
		Name: "hand", Code: code, Rodata: rodata,
		Entries: []uint64{fnA, fnB},
		Imports: map[uint64]string{},
	}
}

func TestDiscoverFindsReferencedTables(t *testing.T) {
	img := handImage()
	fns := []*ir.Function{}
	for _, e := range img.Entries {
		f := &ir.Function{Entry: e}
		start, end, _ := img.FuncBounds(e)
		for a := start; a < end; a += ir.InstSize {
			in, err := ir.Decode(img.Code[a-image.CodeBase : a-image.CodeBase+ir.InstSize])
			if err != nil {
				t.Fatal(err)
			}
			f.Insts = append(f.Insts, in)
		}
		fns = append(fns, f)
	}
	vts := Discover(img, fns)
	if len(vts) != 1 {
		t.Fatalf("discovered %d tables, want exactly the referenced one: %v", len(vts), vts)
	}
	if vts[0].Addr != image.RodataBase || vts[0].NumSlots() != 2 {
		t.Fatalf("wrong table: %v", vts[0])
	}
	if !slices.Contains(vts[0].Slots, img.Entries[1]) {
		t.Error("slots missing function B")
	}
}

func TestRunStopsAtNextReference(t *testing.T) {
	// If two adjacent tables are both referenced, the first run must stop
	// where the second begins.
	fnA := image.CodeBase
	var code []byte
	emit := func(in ir.Inst) {
		var b [ir.InstSize]byte
		in.Encode(b[:])
		code = append(code, b[:]...)
	}
	vt1 := image.RodataBase
	vt2 := image.RodataBase + 8
	emit(ir.Inst{Op: ir.OpLea, Rd: 8, Imm: vt1})
	emit(ir.Inst{Op: ir.OpLea, Rd: 9, Imm: vt2})
	emit(ir.Inst{Op: ir.OpRet})
	rodata := make([]byte, 16)
	binary.LittleEndian.PutUint64(rodata[0:], fnA)
	binary.LittleEndian.PutUint64(rodata[8:], fnA)
	img := &image.Image{Name: "adj", Code: code, Rodata: rodata,
		Entries: []uint64{fnA}, Imports: map[uint64]string{}}
	f := &ir.Function{Entry: fnA}
	for i := 0; i < 3; i++ {
		in, _ := ir.Decode(img.Code[i*ir.InstSize : (i+1)*ir.InstSize])
		f.Insts = append(f.Insts, in)
	}
	vts := Discover(img, []*ir.Function{f})
	if len(vts) != 2 || vts[0].NumSlots() != 1 || vts[1].NumSlots() != 1 {
		t.Fatalf("adjacent referenced tables not split: %v", vts)
	}
}
