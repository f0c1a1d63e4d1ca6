package subtype

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/objtrace"
	"repro/internal/pool"
	"repro/internal/vtable"
)

// vt builds a vtable at addr with the given slot targets.
func vt(addr uint64, slots ...uint64) *vtable.VTable {
	return &vtable.VTable{Addr: addr, Slots: slots}
}

func mustNew(t *testing.T, img Image, sh *pool.Shared) *Scorer {
	t.Helper()
	p, err := New(context.Background(), img, sh)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scores is one Score call's output.
type scores struct {
	Edge []float64
	Root float64
}

func score(p *Scorer, pairs ...[2]uint64) scores {
	edge, root := p.Score(pairs)
	return scores{edge, root}
}

// TestSlotOverlapOrdering pins the core constraint: a candidate parent
// sharing inherited slot targets with the child outscores (scores lower
// than) an unrelated candidate of the same size, and slots holding the
// pure-virtual stub carry no overlap evidence in either direction.
func TestSlotOverlapOrdering(t *testing.T) {
	const purecall = 0x999
	parent := vt(0x100, 10, 11, 12)
	stranger := vt(0x200, 20, 21, 22)
	child := vt(0x300, 10, 11, 33, 34) // inherits two of parent's slots
	img := Image{VTables: []*vtable.VTable{parent, stranger, child}, Purecall: purecall}
	p := mustNew(t, img, nil)

	s := score(p, [2]uint64{0x100, 0x300}, [2]uint64{0x200, 0x300})
	if s.Edge[0] >= s.Edge[1] {
		t.Errorf("slot-sharing parent scored %v, stranger %v; want parent strictly lower", s.Edge[0], s.Edge[1])
	}
	if s.Root < s.Edge[0] || s.Root < s.Edge[1] {
		t.Errorf("Root %v below an edge score %v", s.Root, s.Edge)
	}

	// An all-pure parent prefix neither confirms nor refutes: it falls
	// back to the neutral 0.5 slot term, scoring between the perfect
	// match and the total mismatch.
	abstract := vt(0x400, purecall, purecall, purecall)
	img2 := Image{VTables: []*vtable.VTable{abstract, stranger, child}, Purecall: purecall}
	p2 := mustNew(t, img2, nil)
	s2 := score(p2, [2]uint64{0x400, 0x300}, [2]uint64{0x200, 0x300})
	if s2.Edge[0] >= s2.Edge[1] {
		t.Errorf("pure-slot parent scored %v, mismatching stranger %v; want neutral < mismatch", s2.Edge[0], s2.Edge[1])
	}
}

// TestProximityTieBreak pins the grandparent tie-break: when a child
// shares its inherited prefix with both its parent and its grandparent,
// the interface-size proximity term prefers the direct parent.
func TestProximityTieBreak(t *testing.T) {
	grand := vt(0x100, 10, 11)
	parent := vt(0x200, 10, 11, 20, 21)
	child := vt(0x300, 10, 11, 20, 21, 30)
	img := Image{VTables: []*vtable.VTable{grand, parent, child}}
	p := mustNew(t, img, nil)
	s := score(p, [2]uint64{0x200, 0x300}, [2]uint64{0x100, 0x300})
	if s.Edge[0] >= s.Edge[1] {
		t.Errorf("direct parent scored %v, grandparent %v; want direct parent strictly lower", s.Edge[0], s.Edge[1])
	}
}

// TestInstallFlowEvidence pins the construction-order constraint:
// adjacent primary installs on one object mark a ctor chain step and
// lower the involved pair's score relative to an identical pair with no
// observed flow.
func TestInstallFlowEvidence(t *testing.T) {
	parent := vt(0x100, 10, 11)
	childA := vt(0x300, 20, 21)
	childB := vt(0x400, 30, 31)
	img := Image{
		VTables: []*vtable.VTable{parent, childA, childB},
		Structs: []objtrace.ObjStruct{{
			Fn: 0x1000,
			Events: []objtrace.StructEvent{
				{Install: true, Off: 0, VT: 0x100},
				{Install: true, Off: 0, VT: 0x300},
			},
		}},
	}
	p := mustNew(t, img, nil)
	s := score(p, [2]uint64{0x100, 0x300}, [2]uint64{0x100, 0x400})
	if s.Edge[0] >= s.Edge[1] {
		t.Errorf("flow-observed child scored %v, flow-free child %v; want observed strictly lower", s.Edge[0], s.Edge[1])
	}
}

// TestParentCallEvidence pins the delegated-call constraint: an object
// whose principal type calls into a function sitting in another type's
// vtable lowers that (parent, child) pair.
func TestParentCallEvidence(t *testing.T) {
	parent := vt(0x100, 0x5000, 0x5008)
	childA := vt(0x300, 20, 21)
	childB := vt(0x400, 30, 31)
	img := Image{
		VTables:   []*vtable.VTable{parent, childA, childB},
		FnVTables: map[uint64][]uint64{0x5000: {0x100}},
		Structs: []objtrace.ObjStruct{{
			Fn: 0x1000,
			Events: []objtrace.StructEvent{
				{Install: true, Off: 0, VT: 0x300},
				{Callee: 0x5000},
			},
		}},
	}
	p := mustNew(t, img, nil)
	s := score(p, [2]uint64{0x100, 0x300}, [2]uint64{0x100, 0x400})
	if s.Edge[0] >= s.Edge[1] {
		t.Errorf("parent-calling child scored %v, silent child %v; want caller strictly lower", s.Edge[0], s.Edge[1])
	}
}

// TestBuildDeterministic pins the index-build contract: a corpus of
// observation sequences large enough to span many fan-out chunks
// produces bit-identical scores serially and at every pool capacity.
func TestBuildDeterministic(t *testing.T) {
	var vts []*vtable.VTable
	var structs []objtrace.ObjStruct
	var pairs [][2]uint64
	for i := 0; i < 40; i++ {
		pa := uint64(0x1000 + 0x100*i)
		ca := uint64(0x8000 + 0x100*i)
		vts = append(vts, vt(pa, uint64(i), uint64(i+1)), vt(ca, uint64(i), uint64(i+1), uint64(i+2)))
		pairs = append(pairs, [2]uint64{pa, ca})
		for j := 0; j < 10; j++ {
			structs = append(structs, objtrace.ObjStruct{
				Fn: uint64(0x100000 + i*10 + j),
				Events: []objtrace.StructEvent{
					{Install: true, Off: 0, VT: pa},
					{Install: true, Off: 0, VT: ca},
				},
			})
		}
	}
	img := Image{VTables: vts, Structs: structs}
	want := score(mustNew(t, img, nil), pairs...)
	for _, capacity := range []int{2, 8, 32} {
		got := score(mustNew(t, img, pool.NewShared(capacity)), pairs...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cap=%d: scores diverged from the serial build", capacity)
		}
	}
}
