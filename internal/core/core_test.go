package core

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/cpp"
	"repro/internal/hierarchy"
	"repro/internal/image"
	"repro/internal/slm"
)

// motivating builds the §2 example: Stream with ConfirmableStream and
// FlushableStream children, plus the useX driver functions of Fig. 3.
func motivating() *cpp.Program {
	send := cpp.VCall{Obj: "s", Method: "send", Args: []cpp.Arg{cpp.Scalar()}}
	confirm := cpp.VCall{Obj: "s", Method: "confirm"}
	flush := cpp.VCall{Obj: "s", Method: "flush"}
	closeC := cpp.VCall{Obj: "s", Method: "close"}
	return &cpp.Program{
		Name: "motivating",
		Classes: []*cpp.Class{
			{Name: "Stream", Methods: []*cpp.Method{
				{Name: "send", Virtual: true},
			}},
			{Name: "ConfirmableStream", Bases: []string{"Stream"}, Methods: []*cpp.Method{
				{Name: "confirm", Virtual: true},
			}},
			{Name: "FlushableStream", Bases: []string{"Stream"}, Methods: []*cpp.Method{
				{Name: "flush", Virtual: true},
				{Name: "close", Virtual: true},
			}},
		},
		Funcs: []*cpp.Func{
			{Name: "useStream", Body: []cpp.Stmt{
				cpp.New{Dst: "s", Class: "Stream"},
				send, send, send,
			}},
			{Name: "useConfirmableStream", Body: []cpp.Stmt{
				cpp.New{Dst: "s", Class: "ConfirmableStream"},
				send, confirm, send, confirm, send, confirm,
			}},
			{Name: "useFlushableStream", Body: []cpp.Stmt{
				cpp.New{Dst: "s", Class: "FlushableStream"},
				send, send, send, flush, closeC,
			}},
		},
	}
}

// buildStripped compiles and returns the stripped image plus metadata.
func buildStripped(t *testing.T, p *cpp.Program, opts compiler.Options) (*image.Image, *image.Metadata) {
	t.Helper()
	img, err := compiler.Compile(p, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return img.Strip(), img.Meta
}

func vtOf(t *testing.T, meta *image.Metadata, name string) uint64 {
	t.Helper()
	tm := meta.TypeByName(name)
	if tm == nil {
		t.Fatalf("no emitted type %q", name)
	}
	return tm.VTable
}

func TestMotivatingExamplePipeline(t *testing.T) {
	img, meta := buildStripped(t, motivating(), compiler.DefaultOptions())
	res, err := Analyze(img, DefaultConfig())
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if got := len(res.VTables); got != 3 {
		t.Fatalf("discovered %d vtables, want 3", got)
	}
	if got := len(res.Structural.Families); got != 1 {
		t.Fatalf("got %d families, want 1: %v", got, res.Structural.Families)
	}

	stream := vtOf(t, meta, "Stream")
	conf := vtOf(t, meta, "ConfirmableStream")
	flu := vtOf(t, meta, "FlushableStream")

	// Structural phase II: Stream has no candidates (everything is larger),
	// ConfirmableStream's only candidate is Stream, FlushableStream keeps
	// both.
	if got := res.Structural.PossibleParents[stream]; len(got) != 0 {
		t.Errorf("Stream candidates = %v, want none", got)
	}
	if got := res.Structural.PossibleParents[conf]; len(got) != 1 || got[0] != stream {
		t.Errorf("ConfirmableStream candidates = %v, want [Stream]", got)
	}
	if got := res.Structural.PossibleParents[flu]; len(got) != 2 {
		t.Errorf("FlushableStream candidates = %v, want two", got)
	}

	// §2: D(SLM(Stream)||SLM(Flushable)) < D(SLM(Confirmable)||SLM(Flushable)),
	// so Stream is the more likely parent of FlushableStream.
	dSF := res.Dist[[2]uint64{stream, flu}]
	dCF := res.Dist[[2]uint64{conf, flu}]
	if !(dSF < dCF) {
		t.Errorf("DKL(Stream||Flushable)=%v not < DKL(Confirmable||Flushable)=%v", dSF, dCF)
	}

	// Reconstructed hierarchy matches Fig. 4 / Fig. 6a.
	if p, ok := res.Hierarchy.Parent(conf); !ok || p != stream {
		t.Errorf("parent(ConfirmableStream) = %v,%v; want Stream", p, ok)
	}
	if p, ok := res.Hierarchy.Parent(flu); !ok || p != stream {
		t.Errorf("parent(FlushableStream) = %v,%v; want Stream", p, ok)
	}
	if _, ok := res.Hierarchy.Parent(stream); ok {
		t.Errorf("Stream should be a root")
	}
}

func TestMotivatingStructuralCuesPreserved(t *testing.T) {
	// With parent-constructor calls preserved (debug-friendly build), the
	// structural analysis alone resolves the hierarchy via rule 3.
	img, meta := buildStripped(t, motivating(), compiler.DebugFriendlyOptions())
	res, err := Analyze(img, DefaultConfig())
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	stream := vtOf(t, meta, "Stream")
	conf := vtOf(t, meta, "ConfirmableStream")
	flu := vtOf(t, meta, "FlushableStream")
	if got := res.Structural.DefinitiveParent[conf]; got != stream {
		t.Errorf("definitive parent of Confirmable = 0x%x, want Stream 0x%x", got, stream)
	}
	if got := res.Structural.DefinitiveParent[flu]; got != stream {
		t.Errorf("definitive parent of Flushable = 0x%x, want Stream 0x%x", got, stream)
	}
	if !res.Structural.Resolvable() {
		t.Errorf("expected structurally resolvable benchmark")
	}
	if p, ok := res.Hierarchy.Parent(flu); !ok || p != stream {
		t.Errorf("parent(FlushableStream) = %v,%v; want Stream", p, ok)
	}
}

func TestWithoutSLMSuccessors(t *testing.T) {
	img, meta := buildStripped(t, motivating(), compiler.DefaultOptions())
	cfg := DefaultConfig()
	cfg.UseSLM = false
	res, err := Analyze(img, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	stream := vtOf(t, meta, "Stream")
	conf := vtOf(t, meta, "ConfirmableStream")
	flu := vtOf(t, meta, "FlushableStream")
	var types []uint64
	for _, v := range res.VTables {
		types = append(types, v.Addr)
	}
	succ := hierarchy.PossibleParentSuccessors(res.Structural.PossibleParents, types)
	// Without SLMs, Flushable counts as successor of both Stream and
	// Confirmable (its two possible parents).
	if !succ[stream][flu] || !succ[stream][conf] {
		t.Errorf("Stream successors = %v, want both children", succ[stream])
	}
	if !succ[conf][flu] {
		t.Errorf("Confirmable successors = %v, want Flushable included", succ[conf])
	}
	if res.Hierarchy != nil {
		t.Errorf("without SLMs no hierarchy should be constructed")
	}
}

func TestMultipleInheritanceParents(t *testing.T) {
	prog := &cpp.Program{
		Name: "mi",
		Classes: []*cpp.Class{
			{Name: "A", Fields: []cpp.Field{{Name: "ax"}}, Methods: []*cpp.Method{{Name: "am", Virtual: true}}},
			{Name: "B", Fields: []cpp.Field{{Name: "bx"}}, Methods: []*cpp.Method{{Name: "bm", Virtual: true}}},
			{Name: "C", Bases: []string{"A", "B"}, Methods: []*cpp.Method{{Name: "cm", Virtual: true}}},
		},
		Funcs: []*cpp.Func{
			{Name: "ua", Body: []cpp.Stmt{cpp.New{Dst: "o", Class: "A"}, cpp.VCall{Obj: "o", Method: "am"}}},
			{Name: "ub", Body: []cpp.Stmt{cpp.New{Dst: "o", Class: "B"}, cpp.VCall{Obj: "o", Method: "bm"}}},
			{Name: "uc", Body: []cpp.Stmt{
				cpp.New{Dst: "o", Class: "C"},
				cpp.VCall{Obj: "o", Method: "am"},
				cpp.VCall{Obj: "o", Method: "cm"},
			}},
		},
	}
	img, meta := buildStripped(t, prog, compiler.DefaultOptions())
	res, err := Analyze(img, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := meta.TypeByName("C").VTable
	parents := res.MultiParents[c]
	if len(parents) != 2 {
		t.Fatalf("C has %d parents (%v), want 2 (§5.3: one per observed vtable install)", len(parents), parents)
	}
	a := meta.TypeByName("A").VTable
	b := meta.TypeByName("B").VTable
	got := map[uint64]bool{parents[0]: true, parents[1]: true}
	if !got[a] || !got[b] {
		t.Errorf("C parents = %v, want {A,B} = {%#x,%#x}", parents, a, b)
	}
}

func TestAnalyzeRefusesMetadata(t *testing.T) {
	img, err := compiler.Compile(motivating(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(img, DefaultConfig()); err == nil {
		t.Fatal("non-stripped image accepted: ground truth could leak into the analysis")
	}
}

func TestDistanceMetricAlternatives(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	for _, m := range []slm.Metric{slm.MetricJSDivergence, slm.MetricJSDistance} {
		cfg := DefaultConfig()
		cfg.Metric = m
		if _, err := Analyze(img, cfg); err != nil {
			t.Errorf("metric %v: %v", m, err)
		}
	}
}
