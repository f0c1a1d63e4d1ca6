// Package vtable discovers binary types in a stripped image. Following the
// paper (§1, "binary types are represented as virtual function tables") and
// standard practice (Marx, OOAnalyzer), a vtable is a code-referenced run of
// consecutive function pointers in read-only data: the reference comes from
// the constructor's vtable-pointer install, and the run ends at the first
// word that is not a function entry or at the start of the next referenced
// table.
package vtable

import (
	"fmt"
	"sort"

	"repro/internal/disasm"
	"repro/internal/image"
	"repro/internal/ir"
)

// VTable is one discovered virtual function table.
type VTable struct {
	// Addr is the table's address in rodata.
	Addr uint64
	// Slots holds the function entry addresses, in slot order.
	Slots []uint64
}

// NumSlots returns the number of virtual function slots.
func (v *VTable) NumSlots() int { return len(v.Slots) }

// String renders the table compactly.
func (v *VTable) String() string {
	return fmt.Sprintf("vtable@0x%x (%d slots)", v.Addr, len(v.Slots))
}

// Discover finds all vtables in the image given its decoded functions.
func Discover(img *image.Image, fns []*ir.Function) []*VTable {
	refs := disasm.CodeRefs(img, fns)
	refSet := make(map[uint64]bool, len(refs))
	for _, r := range refs {
		refSet[r] = true
	}
	isFuncEntry := func(a uint64) bool { return img.IsEntry(a) }

	var out []*VTable
	for _, start := range refs {
		if start%8 != 0 {
			continue
		}
		var slots []uint64
		for a := start; ; a += 8 {
			if a != start && refSet[a] {
				break // next referenced table begins here
			}
			w, ok := img.ReadRodataWord(a)
			if !ok || !isFuncEntry(w) {
				break
			}
			slots = append(slots, w)
		}
		if len(slots) == 0 {
			continue // referenced rodata that is not a function-pointer table
		}
		out = append(out, &VTable{Addr: start, Slots: slots})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// ByAddr indexes the tables by address.
func ByAddr(vts []*VTable) map[uint64]*VTable {
	m := make(map[uint64]*VTable, len(vts))
	for _, v := range vts {
		m[v.Addr] = v
	}
	return m
}
