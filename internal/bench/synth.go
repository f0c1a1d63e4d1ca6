package bench

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/image"
	"repro/internal/synth"
)

// SynthConfig is one cell of the adversarial accuracy grid: a generator
// shape crossed with a compiler hard-case mode. Unlike the hand-written
// Table 2 benchmarks, the program is produced procedurally from
// synth.Params, so the grid scales to scenario classes no curated
// benchmark covers.
type SynthConfig struct {
	// Name is "<shape>/<mode>", e.g. "deep/devirt".
	Name string
	// Shape names the generator configuration ("deep", "diamond", ...).
	Shape string
	// Mode names the compiler configuration ("friendly", "opt", ...).
	Mode string
	// Params seeds the generator.
	Params synth.Params
	// Options are the compile options for this cell.
	Options compiler.Options
	// Friendly marks debug-friendly compilation: the structural cues are
	// all retained, so reconstruction is expected to be exact (the
	// resolvable half of Table 2). CI holds these cells to F1 == 1.
	Friendly bool
}

// Build generates and compiles the config's program, returning the
// stripped image and ground-truth metadata (same contract as
// Benchmark.Build).
func (c *SynthConfig) Build() (*image.Image, *image.Metadata, error) {
	prog, _ := synth.Generate(c.Params)
	img, err := compiler.Compile(prog, c.Options)
	if err != nil {
		return nil, nil, fmt.Errorf("synth config %s: %w", c.Name, err)
	}
	return img.Strip(), img.Meta, nil
}

// synthShape is a named generator configuration.
type synthShape struct {
	name   string
	params synth.Params
}

// synthShapes returns the generator side of the grid. Every shape gets its
// own fixed seed so adding a shape never perturbs the programs of the
// others.
func synthShapes() []synthShape {
	deep := synth.DefaultParams(23)
	deep.Families = 4
	deep.MaxDepth = 8
	deep.MaxBranch = 1
	deep.Shape = synth.ShapeDeep

	wide := synth.DefaultParams(37)
	wide.Families = 4
	wide.MaxDepth = 3
	wide.MaxBranch = 5
	wide.Shape = synth.ShapeWide

	diamond := synth.DefaultParams(41)
	diamond.Families = 5
	diamond.MaxDepth = 5
	diamond.MaxBranch = 2
	diamond.Diamonds = true

	split := synth.DefaultParams(53)
	split.Families = 5
	split.MaxDepth = 4
	split.MaxBranch = 2
	split.AbstractRoots = true

	interleaved := synth.DefaultParams(67)
	interleaved.Families = 6
	interleaved.MaxDepth = 4
	interleaved.MaxBranch = 3
	interleaved.Interleave = true

	random := synth.DefaultParams(11)
	random.Families = 6
	// Force the shaped generator so the grid exercises it uniformly; the
	// legacy path keeps its own coverage in internal/synth's tests.
	random.Getters = true

	return []synthShape{
		{"random", random},
		{"deep", deep},
		{"wide", wide},
		{"diamond", diamond},
		{"split", split},
		{"interleaved", interleaved},
	}
}

// synthMode is a named compiler configuration.
type synthMode struct {
	name     string
	opts     compiler.Options
	friendly bool
	// getters forces Params.Getters so the generated program contains
	// COMDAT-foldable accessor bodies for the folding mode to bite on.
	getters bool
}

// synthModes returns the compiler side of the grid.
func synthModes() []synthMode {
	devirt := compiler.DefaultOptions()
	devirt.DevirtualizeMono = true

	comdat := compiler.DefaultOptions()
	comdat.ComdatFoldMethods = true

	partial := compiler.Options{
		InlineCtorAtNew:          true,
		EmitDtors:                true,
		ElideDeadVtableStores:    true,
		RemoveAbstractClasses:    true,
		PartialInlineParentCtors: true,
	}

	return []synthMode{
		{name: "friendly", opts: compiler.DebugFriendlyOptions(), friendly: true},
		{name: "opt", opts: compiler.DefaultOptions()},
		{name: "devirt", opts: devirt},
		{name: "comdat", opts: comdat, getters: true},
		{name: "partial", opts: partial},
	}
}

// SynthGrid returns the full seeded accuracy grid: every generator shape
// crossed with every compiler mode, in a fixed order.
func SynthGrid() []*SynthConfig {
	var out []*SynthConfig
	for _, s := range synthShapes() {
		for _, m := range synthModes() {
			p := s.params
			if m.getters {
				p.Getters = true
			}
			out = append(out, &SynthConfig{
				Name:     s.name + "/" + m.name,
				Shape:    s.name,
				Mode:     m.name,
				Params:   p,
				Options:  m.opts,
				Friendly: m.friendly,
			})
		}
	}
	return out
}
