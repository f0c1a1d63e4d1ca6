package main

// The -scale mode: the sub-quadratic distance-sweep benchmark. It drives
// the synth generator at 1k–10k types in a single wide family (one family
// of n types has n(n-1) ordered pairs, of which the sweep scores only the
// structurally admissible ones), analyzes each size, and reports the
// wall-clock alongside the pair counts that explain it.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/synth"
)

// parseSizes parses the -sizes spec ("1000,3000,10000").
func parseSizes(spec string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad -sizes entry %q (want integers >= 2)", f)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// scaleImage generates and compiles one single-wide-family program of n
// types: a root with n-1 direct children, debug-friendly compilation (no
// inlining/folding) so the constructor-chain rule keeps the family whole,
// and minimal per-type usage so the shared word set stays lean at 10k
// types.
func scaleImage(n int) *image.Image {
	p := synth.DefaultParams(101)
	p.Families = 1
	p.Shape = synth.ShapeWide
	p.MaxDepth = 2
	p.MaxBranch = n - 1
	p.MethodsPerClass = 1
	p.FieldsPerClass = 0
	p.UseReps = 1
	prog, _ := synth.Generate(p)
	img, err := compiler.Compile(prog, compiler.DebugFriendlyOptions())
	if err != nil {
		fatal(err)
	}
	return img
}

// analyzeScale runs one observed, timed analysis. Observation costs a few
// atomic adds against multi-second runs, so the timed and counted run are
// one and the same.
func analyzeScale(img *image.Image) (*core.Result, time.Duration, *obs.Report) {
	cfg := benchConfig()
	bus := obs.NewBus()
	cfg.Obs = bus
	start := time.Now()
	res, err := core.Analyze(img.Strip(), cfg)
	if err != nil {
		fatal(err)
	}
	return res, time.Since(start), bus.Report()
}

// runScale prints one row per family size: types, distinct words,
// admissible and pruned pair counts, wall-clock and parent accuracy.
func runScale(sizesSpec string) {
	fmt.Println("== scale: sparse candidate-pair sweep, one wide family ==")
	sizes, err := parseSizes(sizesSpec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%7s %8s %10s %12s %12s %9s\n",
		"types", "words", "admissible", "pruned", "wall", "parentAcc")
	for _, n := range sizes {
		img := scaleImage(n)
		res, wall, srep := analyzeScale(img)

		// The shared word set every distribution is measured over.
		words := map[string]bool{}
		for _, tls := range res.Tracelets.PerType {
			for _, tl := range tls {
				words[tl.String()] = true
			}
		}
		// The (parent, child) pairs the structural analysis admits.
		admissible := 0
		for _, ps := range res.Structural.PossibleParents {
			admissible += len(ps)
		}

		gt, err := eval.GroundTruthForest(img.Meta)
		if err != nil {
			fatal(err)
		}
		total, correct := 0, 0
		for _, t := range gt.Nodes() {
			wp, wok := gt.Parent(t)
			gp, gok := res.Hierarchy.Parent(t)
			total++
			if wok == gok && (!wok || wp == gp) {
				correct++
			}
		}
		fmt.Printf("%7d %8d %10d %12d %12s %8.1f%%\n",
			len(res.VTables), len(words), admissible, srep.Counters["dist_pairs_pruned"],
			wall.Round(time.Millisecond), 100*float64(correct)/float64(total))
	}
}
