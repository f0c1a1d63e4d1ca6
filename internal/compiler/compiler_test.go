package compiler

import (
	"testing"

	"repro/internal/cpp"
	"repro/internal/disasm"
	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/vtable"
)

func twoClassProgram() *cpp.Program {
	return &cpp.Program{
		Name: "t",
		Classes: []*cpp.Class{
			{Name: "A", Fields: []cpp.Field{{Name: "x"}}, Methods: []*cpp.Method{
				{Name: "m", Virtual: true},
			}},
			{Name: "B", Bases: []string{"A"}, Methods: []*cpp.Method{
				{Name: "n", Virtual: true},
			}},
		},
		Funcs: []*cpp.Func{
			{Name: "useA", Body: []cpp.Stmt{cpp.New{Dst: "o", Class: "A"}, cpp.VCall{Obj: "o", Method: "m"}}},
			{Name: "useB", Body: []cpp.Stmt{cpp.New{Dst: "o", Class: "B"}, cpp.VCall{Obj: "o", Method: "n"}}},
		},
	}
}

func TestCompileEmitsVTablesWithSharedSlots(t *testing.T) {
	img, err := Compile(twoClassProgram(), DebugFriendlyOptions())
	if err != nil {
		t.Fatal(err)
	}
	fns, err := disasm.All(img)
	if err != nil {
		t.Fatal(err)
	}
	vts := vtable.Discover(img, fns)
	if len(vts) != 2 {
		t.Fatalf("discovered %d vtables, want 2", len(vts))
	}
	// Layout: [dtor, m] for A; [dtor, m, n] for B sharing A's m.
	byAddr := vtable.ByAddr(vts)
	a := byAddr[img.Meta.TypeByName("A").VTable]
	b := byAddr[img.Meta.TypeByName("B").VTable]
	if a.NumSlots() != 2 || b.NumSlots() != 3 {
		t.Fatalf("slot counts %d/%d, want 2/3", a.NumSlots(), b.NumSlots())
	}
	if a.Slots[1] != b.Slots[1] {
		t.Error("un-overridden method should share one implementation")
	}
	if a.Slots[0] == b.Slots[0] {
		t.Error("destructors must be per-class")
	}
}

func TestInducedHierarchySkipsRemovedAbstract(t *testing.T) {
	p := &cpp.Program{
		Name: "t",
		Classes: []*cpp.Class{
			{Name: "Root", Methods: []*cpp.Method{{Name: "m", Virtual: true}}},
			{Name: "Mid", Bases: []string{"Root"}, Methods: []*cpp.Method{{Name: "pm", Virtual: true, Pure: true}}},
			{Name: "Leaf", Bases: []string{"Mid"}, Methods: []*cpp.Method{{Name: "pm", Virtual: true}}},
		},
		Funcs: []*cpp.Func{
			{Name: "u1", Body: []cpp.Stmt{cpp.New{Dst: "o", Class: "Root"}}},
			{Name: "u2", Body: []cpp.Stmt{cpp.New{Dst: "o", Class: "Leaf"}}},
		},
	}
	opts := DefaultOptions() // removes abstract Mid
	img, err := Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if img.Meta.TypeByName("Mid") != nil {
		t.Fatal("abstract class still emitted")
	}
	leaf := img.Meta.TypeByName("Leaf")
	root := img.Meta.TypeByName("Root")
	if leaf == nil || root == nil {
		t.Fatal("missing emitted types")
	}
	if leaf.Parent != root.VTable {
		t.Errorf("induced parent of Leaf should skip removed Mid")
	}
}

func TestCtorInliningRemovesCalls(t *testing.T) {
	countCalls := func(opts Options) int {
		img, err := Compile(twoClassProgram(), opts)
		if err != nil {
			t.Fatal(err)
		}
		fns, _ := disasm.All(img)
		n := 0
		for _, f := range fns {
			if img.Meta.FuncNames[f.Entry] != "useB" {
				continue
			}
			for _, in := range f.Insts {
				if _, imp := img.Imports[in.Imm]; in.Op == ir.OpCall && !imp {
					n++
				}
			}
		}
		return n
	}
	// Debug-friendly: useB's inlined B-ctor calls ctor:A.
	if n := countCalls(DebugFriendlyOptions()); n == 0 {
		t.Error("expected a parent-ctor call in the cue-preserving build")
	}
	// Fully optimized: no ctor calls remain.
	if n := countCalls(DefaultOptions()); n != 0 {
		t.Errorf("optimized build still has %d direct calls in useB", n)
	}
}

func TestFoldIdenticalBodies(t *testing.T) {
	p := &cpp.Program{
		Name: "t",
		Classes: []*cpp.Class{
			{Name: "A", Fields: []cpp.Field{{Name: "x"}}, Methods: []*cpp.Method{
				{Name: "ga", Virtual: true, Body: []cpp.Stmt{cpp.ReadField{Obj: "this", Field: "x"}}},
			}},
			{Name: "B", Fields: []cpp.Field{{Name: "y"}}, Methods: []*cpp.Method{
				{Name: "gb", Virtual: true, Body: []cpp.Stmt{cpp.ReadField{Obj: "this", Field: "y"}}},
			}},
		},
		Funcs: []*cpp.Func{
			{Name: "u1", Body: []cpp.Stmt{cpp.New{Dst: "o", Class: "A"}, cpp.VCall{Obj: "o", Method: "ga"}}},
			{Name: "u2", Body: []cpp.Stmt{cpp.New{Dst: "o", Class: "B"}, cpp.VCall{Obj: "o", Method: "gb"}}},
		},
	}
	build := func(fold bool) (*image.Image, []*vtable.VTable) {
		opts := DefaultOptions()
		opts.FoldIdenticalBodies = fold
		img, err := Compile(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		fns, _ := disasm.All(img)
		return img, vtable.Discover(img, fns)
	}
	_, vts := build(false)
	if len(vts) != 2 || vts[0].Slots[1] == vts[1].Slots[1] {
		t.Fatal("without folding the getters must be distinct")
	}
	_, vts = build(true)
	if vts[0].Slots[1] != vts[1].Slots[1] {
		t.Error("identical getters did not fold")
	}
}

func TestPurecallStubEmitted(t *testing.T) {
	p := &cpp.Program{
		Name: "t",
		Classes: []*cpp.Class{
			{Name: "I", Methods: []*cpp.Method{{Name: "m", Virtual: true, Pure: true}}},
			{Name: "C", Bases: []string{"I"}, Methods: []*cpp.Method{{Name: "m", Virtual: true}}},
		},
		Funcs: []*cpp.Func{{Name: "u", Body: []cpp.Stmt{cpp.New{Dst: "o", Class: "C"}}}},
	}
	opts := DebugFriendlyOptions() // keep the abstract class
	img, err := Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	fns, _ := disasm.All(img)
	vts := vtable.Discover(img, fns)
	if len(vts) != 2 {
		t.Fatalf("want both vtables, got %d", len(vts))
	}
	// I's pure slot points at a self-looping abort stub.
	i := vtable.ByAddr(vts)[img.Meta.TypeByName("I").VTable]
	stub := i.Slots[1]
	for _, f := range fns {
		if f.Entry != stub {
			continue
		}
		self := false
		for idx, in := range f.Insts {
			if in.Op == ir.OpJmp && in.Imm == f.AddrOf(idx) {
				self = true
			}
		}
		if !self {
			t.Error("purecall stub lacks the self-loop signature")
		}
		return
	}
	t.Error("purecall stub not found among functions")
}
