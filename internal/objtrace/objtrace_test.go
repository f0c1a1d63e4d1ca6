package objtrace

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpp"
	"repro/internal/disasm"
	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/vtable"
)

// buildAndExtract compiles a program with the given options and runs the
// extractor on the stripped image.
func buildAndExtract(t *testing.T, p *cpp.Program, opts compiler.Options) (*image.Image, *Result) {
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
	return img, extract(t, stripped, fns, vts)
}

// window is the tracelet window the tests merge under, the paper's 7.
const window = 7

// extract runs every function's symbolic execution and merges the
// bundles with no prior.
func extract(t *testing.T, img *image.Image, fns []*ir.Function, vts []*vtable.VTable) *Result {
	t.Helper()
	exts, err := ExtractFunctions(context.Background(), img, fns, vts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return merge(exts, vts)
}

// merge is MergeFunctions with no prior.
func merge(exts []*FnExtraction, vts []*vtable.VTable) *Result {
	res, _ := MergeFunctions(exts, vts, window, nil)
	return res
}

func prog() *cpp.Program {
	return &cpp.Program{
		Name: "t",
		Classes: []*cpp.Class{
			{Name: "A", Fields: []cpp.Field{{Name: "x"}}, Methods: []*cpp.Method{
				{Name: "m", Virtual: true},
				{Name: "g", Virtual: true},
			}},
		},
		Funcs: []*cpp.Func{
			{Name: "helper", Params: []cpp.Param{{Name: "o", Class: "A"}}, Body: []cpp.Stmt{cpp.Return{}}},
			{Name: "use", Body: []cpp.Stmt{
				cpp.New{Dst: "o", Class: "A"},
				cpp.VCall{Obj: "o", Method: "m"},
				cpp.VCall{Obj: "o", Method: "g"},
				cpp.WriteField{Obj: "o", Field: "x"},
				cpp.ReadField{Obj: "o", Field: "x"},
				cpp.CallFunc{Name: "helper", Args: []cpp.Arg{cpp.ObjArg("o")}},
				cpp.Return{Obj: "o"},
			}},
		},
	}
}

func TestTable1Events(t *testing.T) {
	img, res := buildAndExtract(t, prog(), compiler.DefaultOptions())
	vt := img.Meta.TypeByName("A").VTable
	seqs := res.RawPerType[vt]
	if len(seqs) == 0 {
		t.Fatal("no sequences extracted for A")
	}
	// The use function produces, after the ctor field init:
	// W(8) C(1) C(2) W(8) R(8) Arg(0) call(helper) ret.
	found := map[string]bool{}
	for _, seq := range seqs {
		for _, e := range seq {
			found[e.String()] = true
		}
	}
	for _, want := range []string{"C(1)", "C(2)", "W(8)", "R(8)", "Arg(0)", "ret"} {
		if !found[want] {
			t.Errorf("event %s not observed; got %v", want, found)
		}
	}
	callSeen := false
	for k := range found {
		if len(k) > 5 && k[:5] == "call(" {
			callSeen = true
		}
	}
	if !callSeen {
		t.Errorf("no call(f) event observed; got %v", found)
	}
}

func TestWindowing(t *testing.T) {
	seq := make([]Event, 10)
	for i := range seq {
		seq[i] = Event{Kind: EvCall, N: uint64(i)}
	}
	ws := windows(seq, 7)
	if len(ws) != 4 { // 10-7+1 sliding windows
		t.Fatalf("got %d windows, want 4", len(ws))
	}
	for _, w := range ws {
		if len(w) != 7 {
			t.Fatalf("window length %d", len(w))
		}
	}
	short := windows(seq[:3], 7)
	if len(short) != 1 || len(short[0]) != 3 {
		t.Fatalf("short sequence should stay whole: %v", short)
	}
}

func TestStructuralObservations(t *testing.T) {
	// With cues preserved, the ctor-call pattern must be visible: the use
	// site installs the vtable and the object is typed from the install.
	_, res := buildAndExtract(t, prog(), compiler.DebugFriendlyOptions())
	sawInstall := false
	for _, os := range res.Structs {
		for _, e := range os.Events {
			if e.Install && e.Off == 0 {
				sawInstall = true
			}
		}
	}
	if !sawInstall {
		t.Fatal("no vtable install observed")
	}
}

func TestThisTypedMethodTraces(t *testing.T) {
	// A method body operating on `this` must contribute tracelets to every
	// type whose vtable contains the method.
	p := &cpp.Program{
		Name: "t",
		Classes: []*cpp.Class{
			{Name: "A", Fields: []cpp.Field{{Name: "x"}}, Methods: []*cpp.Method{
				{Name: "m", Virtual: true, Body: []cpp.Stmt{
					cpp.WriteField{Obj: "this", Field: "x"},
					cpp.ReadField{Obj: "this", Field: "x"},
				}},
			}},
			{Name: "B", Bases: []string{"A"}, Methods: []*cpp.Method{{Name: "n", Virtual: true}}},
		},
		Funcs: []*cpp.Func{
			{Name: "ua", Body: []cpp.Stmt{cpp.New{Dst: "o", Class: "A"}}},
			{Name: "ub", Body: []cpp.Stmt{cpp.New{Dst: "o", Class: "B"}}},
		},
	}
	img, res := buildAndExtract(t, p, compiler.DefaultOptions())
	for _, cls := range []string{"A", "B"} {
		vt := img.Meta.TypeByName(cls).VTable
		sawW := false
		for _, seq := range res.RawPerType[vt] {
			for _, e := range seq {
				if e.Kind == EvWrite {
					sawW = true
				}
			}
		}
		if !sawW {
			t.Errorf("method trace missing for %s (shared impl should type `this` for both)", cls)
		}
	}
}

func TestPathExplosionBounded(t *testing.T) {
	// Deeply nested branches must be cut off by MaxPaths, not hang.
	var body []cpp.Stmt
	body = append(body, cpp.New{Dst: "o", Class: "A"})
	inner := []cpp.Stmt{cpp.VCall{Obj: "o", Method: "m"}}
	for i := 0; i < 20; i++ {
		inner = []cpp.Stmt{cpp.If{Then: inner, Else: []cpp.Stmt{cpp.VCall{Obj: "o", Method: "g"}}}}
	}
	p := prog()
	p.Funcs = append(p.Funcs, &cpp.Func{Name: "deep", Body: append(body, inner...)})
	_, res := buildAndExtract(t, p, compiler.DefaultOptions())
	if len(res.PerType) == 0 {
		t.Fatal("no tracelets extracted")
	}
}

func TestLoopUnrollBounded(t *testing.T) {
	p := prog()
	p.Funcs = append(p.Funcs, &cpp.Func{Name: "loopy", Body: []cpp.Stmt{
		cpp.New{Dst: "o", Class: "A"},
		cpp.Loop{Body: []cpp.Stmt{cpp.VCall{Obj: "o", Method: "m"}}},
	}})
	img, res := buildAndExtract(t, p, compiler.DefaultOptions())
	vt := img.Meta.TypeByName("A").VTable
	maxCalls := 0
	for _, seq := range res.RawPerType[vt] {
		n := 0
		for _, e := range seq {
			if e.Kind == EvCall && e.N == 1 {
				n++
			}
		}
		if n > maxCalls {
			maxCalls = n
		}
	}
	if maxCalls == 0 {
		t.Fatal("loop body produced no events")
	}
	if maxCalls > MaxUnroll+1 {
		t.Errorf("loop unrolled %d times, bound is %d", maxCalls, MaxUnroll)
	}
}

// TestSplitExtractionEquivalence pins the incremental lane's core
// contract: every function yields one bundle of its own structs, and
// bundles fed back through the reuse hook (as a version-diff restore
// would) change nothing.
func TestSplitExtractionEquivalence(t *testing.T) {
	img, err := compiler.Compile(prog(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stripped := img.Strip()
	fns, err := disasm.All(stripped)
	if err != nil {
		t.Fatal(err)
	}
	vts := vtable.Discover(stripped, fns)

	exts, err := ExtractFunctions(context.Background(), stripped, fns, vts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != len(fns) {
		t.Fatalf("got %d bundles for %d functions", len(exts), len(fns))
	}
	for i, ext := range exts {
		if ext.Entry != fns[i].Entry {
			t.Fatalf("bundle %d entry %#x, want %#x", i, ext.Entry, fns[i].Entry)
		}
		for _, os := range ext.Structs {
			if os.Fn != ext.Entry {
				t.Fatalf("bundle %#x carries struct of fn %#x", ext.Entry, os.Fn)
			}
		}
	}
	want := merge(exts, vts)

	// Re-run with every bundle supplied via the reuse hook: no executor
	// runs, and the merged result is still identical.
	reused, err := ExtractFunctions(context.Background(), stripped, fns, vts, nil,
		func(i int) *FnExtraction { return exts[i] })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused, exts) {
		t.Fatal("reuse hook altered the bundles")
	}
	if !reflect.DeepEqual(merge(reused, vts), want) {
		t.Fatal("merge of reused bundles differs from the fresh merge")
	}
}

// TestContextDigest pins what the cross-function digest covers: stable
// across calls, insensitive to code bytes (those are the per-function
// digests' job), sensitive to entries, imports, and vtable contents.
func TestContextDigest(t *testing.T) {
	img, err := compiler.Compile(prog(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stripped := img.Strip()
	fns, err := disasm.All(stripped)
	if err != nil {
		t.Fatal(err)
	}
	vts := vtable.Discover(stripped, fns)
	base := ContextDigest(stripped, vts)
	if base != ContextDigest(stripped, vts) {
		t.Fatal("context digest not stable")
	}

	patched := stripped.Strip()
	patched.Code[0] ^= 0xff
	if ContextDigest(patched, vts) != base {
		t.Error("code byte changed the context digest")
	}

	moved := stripped.Strip()
	moved.Entries = append([]uint64(nil), moved.Entries...)
	moved.Entries[0] += 16
	if ContextDigest(moved, vts) == base {
		t.Error("entry change kept the context digest")
	}

	renamed := stripped.Strip()
	renamed.Imports = map[uint64]string{}
	for a, n := range stripped.Imports {
		renamed.Imports[a] = n
	}
	for a := range renamed.Imports {
		renamed.Imports[a] = "other"
		break
	}
	if ContextDigest(renamed, vts) == base {
		t.Error("import rename kept the context digest")
	}

	if len(vts) > 0 && len(vts[0].Slots) > 0 {
		vcopy := make([]*vtable.VTable, len(vts))
		copy(vcopy, vts)
		alt := *vts[0]
		alt.Slots = append([]uint64(nil), alt.Slots...)
		alt.Slots[0]++
		vcopy[0] = &alt
		if ContextDigest(stripped, vcopy) == base {
			t.Error("vtable slot change kept the context digest")
		}
	}
}

// TestMergeFunctionsDelta pins the merge with a prior against the merge
// without one: for any changed mask, merging the current bundles against a
// prior merge of entry-aligned bundles reproduces the no-prior merge
// exactly — including when the prior bundles genuinely differ from the
// current ones — and the affected set is empty exactly when nothing
// changed.
func TestMergeFunctionsDelta(t *testing.T) {
	img, err := compiler.Compile(prog(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stripped := img.Strip()
	fns, err := disasm.All(stripped)
	if err != nil {
		t.Fatal(err)
	}
	vts := vtable.Discover(stripped, fns)
	exts, err := ExtractFunctions(context.Background(), stripped, fns, vts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, all := MergeFunctions(exts, vts, window, nil)
	if all != nil {
		t.Fatalf("merge with no prior built an affected set of %d types", len(all))
	}
	priorFns := map[uint64]*FnExtraction{}
	for _, e := range exts {
		priorFns[e.Entry] = e
	}

	// Identical prior: any changed mask must reproduce the full merge.
	for name, mark := range map[string]func(int) bool{
		"none":      func(int) bool { return false },
		"every-3rd": func(i int) bool { return i%3 == 0 },
		"all":       func(int) bool { return true },
	} {
		changed := make([]bool, len(exts))
		n := 0
		for i := range changed {
			if mark(i) {
				changed[i] = true
				n++
			}
		}
		got, affected := MergeFunctions(exts, vts, window, &Prior{Result: want, Fns: priorFns, Changed: changed})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mask %s: merge with a prior differs from the merge without one", name)
		}
		if n == 0 && len(affected) != 0 {
			t.Fatalf("mask %s: %d affected types with nothing changed", name, len(affected))
		}
	}

	// Real difference: the prior version of one bundle is missing a
	// segment (as if the old code never emitted it). The merge must
	// repair the type's lists to the current full merge, and report the
	// segment's type as affected.
	victim := -1
	for i, e := range exts {
		if len(e.Segments) > 0 && len(e.Segments[len(e.Segments)-1].Events) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no bundle with a non-empty segment")
	}
	old := *exts[victim]
	old.Segments = old.Segments[:len(old.Segments)-1]
	priorExts := append([]*FnExtraction(nil), exts...)
	priorExts[victim] = &old
	prior := merge(priorExts, vts)
	oldFns := map[uint64]*FnExtraction{}
	for _, e := range priorExts {
		oldFns[e.Entry] = e
	}
	changed := make([]bool, len(exts))
	changed[victim] = true
	got, affected := MergeFunctions(exts, vts, window, &Prior{Result: prior, Fns: oldFns, Changed: changed})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merge over a differing prior did not repair the merge without one")
	}
	vt := exts[victim].Segments[len(exts[victim].Segments)-1].VT
	if !affected[vt] {
		t.Fatalf("type %#x lost a segment but is not marked affected", vt)
	}
}
