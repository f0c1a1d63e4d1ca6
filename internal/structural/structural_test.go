package structural

import (
	"context"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpp"
	"repro/internal/disasm"
	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/objtrace"
	"repro/internal/vtable"
)

// extract runs the tracelet extraction the way core does: every function
// executed, the bundles merged with no prior.
func extract(t *testing.T, img *image.Image, fns []*ir.Function, vts []*vtable.VTable) *objtrace.Result {
	t.Helper()
	exts, err := objtrace.ExtractFunctions(context.Background(), img, fns, vts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := objtrace.MergeFunctions(exts, vts, 7, nil)
	return tr
}

func analyze(t *testing.T, p *cpp.Program, opts compiler.Options) (*image.Image, *Result) {
	t.Helper()
	img, err := compiler.Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	stripped := img.Strip()
	fns, err := disasm.All(stripped)
	if err != nil {
		t.Fatal(err)
	}
	vts := vtable.Discover(stripped, fns)
	return img, Analyze(stripped, fns, vts, extract(t, stripped, fns, vts))
}

func family(name string) *cpp.Program {
	b := &cpp.Program{Name: name}
	b.Classes = []*cpp.Class{
		{Name: "P", Methods: []*cpp.Method{{Name: "m", Virtual: true}}},
		{Name: "C1", Bases: []string{"P"}, Methods: []*cpp.Method{{Name: "a", Virtual: true}}},
		{Name: "C2", Bases: []string{"P"}, Methods: []*cpp.Method{{Name: "b", Virtual: true}, {Name: "c", Virtual: true}}},
		{Name: "X", Methods: []*cpp.Method{{Name: "z", Virtual: true}}},
	}
	for _, cls := range []string{"P", "C1", "C2", "X"} {
		b.Funcs = append(b.Funcs, &cpp.Func{Name: "use" + cls, Body: []cpp.Stmt{cpp.New{Dst: "o", Class: cls}}})
	}
	return b
}

func TestFamilyClusteringBySharedSlots(t *testing.T) {
	img, res := analyze(t, family("t"), compiler.DefaultOptions())
	if len(res.Families) != 2 {
		t.Fatalf("got %d families, want 2 (P-family and X alone): %v", len(res.Families), res.Families)
	}
	p := img.Meta.TypeByName("P").VTable
	x := img.Meta.TypeByName("X").VTable
	if res.FamilyOf[p] == res.FamilyOf[x] {
		t.Error("unrelated X merged into P's family")
	}
}

func TestSizeRuleEliminatesLargerParents(t *testing.T) {
	img, res := analyze(t, family("t"), compiler.DefaultOptions())
	p := img.Meta.TypeByName("P").VTable
	c1 := img.Meta.TypeByName("C1").VTable
	c2 := img.Meta.TypeByName("C2").VTable
	// P (2 slots) cannot have C1 (3) or C2 (4) as parents.
	if len(res.PossibleParents[p]) != 0 {
		t.Errorf("P candidates = %v, want none", res.PossibleParents[p])
	}
	// C1 can only descend from P; C2 from P or C1.
	if got := res.PossibleParents[c1]; len(got) != 1 || got[0] != p {
		t.Errorf("C1 candidates = %v", got)
	}
	if got := res.PossibleParents[c2]; len(got) != 2 {
		t.Errorf("C2 candidates = %v, want [P C1]", got)
	}
}

func TestCtorCallsGiveDefinitiveParents(t *testing.T) {
	img, res := analyze(t, family("t"), compiler.DebugFriendlyOptions())
	p := img.Meta.TypeByName("P").VTable
	c2 := img.Meta.TypeByName("C2").VTable
	if got := res.DefinitiveParent[c2]; got != p {
		t.Errorf("definitive parent of C2 = %#x, want P %#x", got, p)
	}
	if got := res.PossibleParents[c2]; len(got) != 1 || got[0] != p {
		t.Errorf("definitive parent should collapse candidates: %v", got)
	}
	if !res.Resolvable() {
		t.Error("cue-preserving build should be structurally resolvable")
	}
}

func TestPurecallRule(t *testing.T) {
	p := &cpp.Program{
		Name: "t",
		Classes: []*cpp.Class{
			// Abstract A with a pure slot; concrete S of the same size with
			// a concrete slot at the same position.
			{Name: "A", Methods: []*cpp.Method{{Name: "m", Virtual: true, Pure: true}}},
			{Name: "B", Bases: []string{"A"}, Methods: []*cpp.Method{{Name: "m", Virtual: true}, {Name: "n", Virtual: true}}},
			{Name: "S", Methods: []*cpp.Method{{Name: "q", Virtual: true, Body: []cpp.Stmt{cpp.Opaque{Seed: 9}}}}},
		},
		Funcs: []*cpp.Func{
			{Name: "u1", Body: []cpp.Stmt{cpp.New{Dst: "o", Class: "B"}}},
			{Name: "u2", Body: []cpp.Stmt{cpp.New{Dst: "o", Class: "S"}}},
		},
	}
	opts := compiler.DebugFriendlyOptions()
	img, err := compiler.Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	stripped := img.Strip()
	fns, _ := disasm.All(stripped)
	vts := vtable.Discover(stripped, fns)
	res := Analyze(stripped, fns, vts, extract(t, stripped, fns, vts))
	if res.Purecall == 0 {
		t.Fatal("purecall stub not detected")
	}
	// A (child) pure at slot 1 where S (parent) is concrete: impossible.
	a := img.Meta.TypeByName("A").VTable
	s := img.Meta.TypeByName("S").VTable
	// Force them into one family for the test by checking the rule
	// directly.
	av := vtable.ByAddr(vts)[a]
	sv := vtable.ByAddr(vts)[s]
	if !violatesPurecall(av, sv, res.Purecall) {
		t.Error("pure child / concrete parent should violate rule 2")
	}
	if violatesPurecall(sv, av, res.Purecall) {
		t.Error("concrete child / pure parent is legitimate")
	}
}

func TestInstallerSummaries(t *testing.T) {
	img, res := analyze(t, family("t"), compiler.DebugFriendlyOptions())
	found := 0
	for _, vts := range res.InstallerOf {
		found += len(vts)
	}
	if found == 0 {
		t.Fatal("no constructor summaries recorded")
	}
	_ = img
}
