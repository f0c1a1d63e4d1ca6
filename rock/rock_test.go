package rock

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/image"
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
}

// TestNegativeDepthAndWindowRejected: 0 selects the default SLM depth
// and tracelet window, and a negative one, alone or both together, is an
// invalid option rather than a silent default.
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
		if _, err := Analyze(bin, opts); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("depth %d, window %d: err = %v, want ErrInvalidOption", opts.SLMDepth, opts.Window, err)
		}
		if _, err := NewEngine(opts); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("engine with depth %d, window %d: err = %v, want ErrInvalidOption", opts.SLMDepth, opts.Window, err)
		}
	}
}

// TestInvalidOptions: each invalid option is an error wrapping
// ErrInvalidOption from every entry point, never a silent default, so
// the commands can report it as a usage mistake.
func TestInvalidOptions(t *testing.T) {
	bin := motivatingBinary(t)
	img, err := image.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"metric", Options{Metric: "cosine"}},
		{"depth", Options{SLMDepth: -3}},
		{"window", Options{Window: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Analyze(bin, tc.opts)
			if !errors.Is(err, ErrInvalidOption) {
				t.Errorf("Analyze: err = %v, want ErrInvalidOption", err)
			}
			if _, err := NewEngine(tc.opts); !errors.Is(err, ErrInvalidOption) {
				t.Errorf("NewEngine: err = %v, want ErrInvalidOption", err)
			}
			_, err = AnalyzeCorpus(context.Background(), []*image.Image{img}, CorpusOptions{Options: tc.opts})
			if !errors.Is(err, ErrInvalidOption) {
				t.Errorf("AnalyzeCorpus: err = %v, want ErrInvalidOption", err)
			}
		})
	}
}

func TestAnalyzeRejectsGarbage(t *testing.T) {
	_, err := Analyze([]byte("not a binary"), Options{})
	if err == nil {
		t.Error("garbage input accepted")
	}
	if errors.Is(err, ErrInvalidOption) {
		t.Errorf("a bad image reported as an invalid option: %v", err)
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
