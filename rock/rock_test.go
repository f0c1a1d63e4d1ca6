package rock

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/compiler"
)

func motivatingBinary(t *testing.T) []byte {
	t.Helper()
	img, err := compiler.Compile(bench.Motivating(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestAnalyzeEndToEnd(t *testing.T) {
	rep, err := Analyze(motivatingBinary(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Types) != 3 || len(rep.Families) != 1 {
		t.Fatalf("types=%d families=%d", len(rep.Types), len(rep.Families))
	}
	if rep.StructurallyResolved {
		t.Error("motivating example must not be structurally resolvable")
	}
	// Both children under Stream.
	byName := map[string]uint64{}
	for _, ty := range rep.Types {
		byName[ty.Name] = ty.VTable
	}
	parents := map[uint64]uint64{}
	for _, e := range rep.Edges {
		parents[e.Child] = e.Parent
	}
	if parents[byName["ConfirmableStream"]] != byName["Stream"] ||
		parents[byName["FlushableStream"]] != byName["Stream"] {
		t.Errorf("wrong hierarchy: %v", rep.Edges)
	}
	if len(rep.GroundTruthEdges) != 2 {
		t.Errorf("ground truth edges = %v", rep.GroundTruthEdges)
	}
	if rep.HierarchyString() == "" {
		t.Error("empty hierarchy rendering")
	}
}

func TestStructuralOnlyMode(t *testing.T) {
	rep, err := Analyze(motivatingBinary(t), Options{StructuralOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Edges) != 0 {
		t.Error("structural-only mode must not build a hierarchy")
	}
	if len(rep.PossibleParents) == 0 {
		t.Error("possible parents missing")
	}
}

func TestMetricSelection(t *testing.T) {
	bin := motivatingBinary(t)
	for _, m := range []string{"", "kl", "js-divergence", "js-distance", "JS", "jsd"} {
		if _, err := Analyze(bin, Options{Metric: m}); err != nil {
			t.Errorf("metric %q rejected: %v", m, err)
		}
	}
	if _, err := Analyze(bin, Options{Metric: "cosine"}); err == nil {
		t.Error("unknown metric accepted")
	}
}

// TestNegativeDepthAndWindowRejected: 0 selects the default SLM depth and
// tracelet window, and a negative value is an error, never a silent
// default.
func TestNegativeDepthAndWindowRejected(t *testing.T) {
	bin := motivatingBinary(t)
	def, err := Analyze(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Analyze(bin, Options{SLMDepth: 2, Window: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Edges, explicit.Edges) {
		t.Error("zero depth and window differ from the explicit defaults 2 and 7")
	}
	for _, opts := range []Options{{SLMDepth: -3}, {Window: -1}, {SLMDepth: -3, Window: -1}} {
		if _, err := Analyze(bin, opts); err == nil {
			t.Errorf("depth %d, window %d accepted", opts.SLMDepth, opts.Window)
		}
		if _, err := NewEngine(opts); err == nil {
			t.Errorf("engine with depth %d, window %d accepted", opts.SLMDepth, opts.Window)
		}
	}
}

func TestAnalyzeRejectsGarbage(t *testing.T) {
	if _, err := Analyze([]byte("not a binary"), Options{}); err == nil {
		t.Error("garbage input accepted")
	}
}

func TestStrippedInputHasPlaceholderNames(t *testing.T) {
	img, err := compiler.Compile(bench.Motivating(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.Strip().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ty := range rep.Types {
		if ty.Name == "" || ty.Name[0] != 'v' { // vt_0x...
			t.Errorf("stripped input produced name %q", ty.Name)
		}
	}
	if len(rep.GroundTruthEdges) != 0 {
		t.Error("stripped input cannot have ground truth edges")
	}
}
