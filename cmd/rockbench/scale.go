package main

// The -scale mode: the sub-quadratic distance-sweep benchmark. It drives
// the synth generator at 1k–10k types in a single wide family (one family
// of n types has n(n-1) ordered pairs, of which the sweep scores only the
// structurally admissible ones), analyzes each size, and reports the
// wall-clock alongside the pair counts that explain it.

import (
	"fmt"
	"runtime"
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

// ScaleSchema identifies the BENCH_scale.json format.
const ScaleSchema = "rock-bench-scale/v2"

// scaleRow is one family size's measurement.
type scaleRow struct {
	// Types is the number of discovered binary types (family size + 1 root).
	Types int `json:"types"`
	// Funcs is the image's function count.
	Funcs int `json:"funcs"`
	// Words is the number of distinct tracelets image-wide — the shared
	// word set every distribution is measured over.
	Words int `json:"words"`
	// Families is the structural family count (1 when the generator's
	// single family survives intact).
	Families int `json:"families"`
	// AdmissiblePairs counts the (parent, child) pairs the structural
	// analysis admits — the edges Edmonds can actually consume.
	AdmissiblePairs int64 `json:"admissible_pairs"`
	// WallNs is the end-to-end analysis wall-clock.
	WallNs int64 `json:"wall_ns"`
	// DistPairs / DistPairsPruned are the run's observed sweep counters:
	// pairs reduced and ordered family pairs skipped.
	DistPairs       int64 `json:"dist_pairs"`
	DistPairsPruned int64 `json:"dist_pairs_pruned"`
	// ParentAcc is the fraction of types whose reconstructed parent edge
	// matches the generator's ground truth.
	ParentAcc float64 `json:"parent_acc"`
	// PeakRSSKB is the process high-water resident set after this size
	// (process-wide, monotone across rows).
	PeakRSSKB int64 `json:"peak_rss_kb"`
}

// scaleReport is the rockbench -scale output (BENCH_scale.json).
type scaleReport struct {
	Schema  string     `json:"schema"`
	Workers int        `json:"workers"`
	Rows    []scaleRow `json:"rows"`
}

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

// runScale benchmarks the sparse sweep across family sizes.
func runScale(jsonPath, sizesSpec string) {
	fmt.Println("== scale: sparse candidate-pair sweep, one wide family ==")
	sizes, err := parseSizes(sizesSpec)
	if err != nil {
		fatal(err)
	}
	workers := benchConfig().Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &scaleReport{Schema: ScaleSchema, Workers: workers}
	fmt.Printf("%7s %8s %10s %12s %12s %9s\n",
		"types", "words", "admissible", "pruned", "wall", "parentAcc")
	for _, n := range sizes {
		img := scaleImage(n)
		meta := img.Meta
		res, wall, srep := analyzeScale(img)

		row := scaleRow{
			Types:    len(res.VTables),
			Funcs:    len(img.Entries),
			Families: len(res.Structural.Families),
			WallNs:   wall.Nanoseconds(),
		}
		words := map[string]bool{}
		for _, tls := range res.Tracelets.PerType {
			for _, tl := range tls {
				words[tl.String()] = true
			}
		}
		row.Words = len(words)
		for _, ps := range res.Structural.PossibleParents {
			row.AdmissiblePairs += int64(len(ps))
		}
		row.DistPairs = srep.Counters["dist_pairs"]
		row.DistPairsPruned = srep.Counters["dist_pairs_pruned"]

		gt, err := eval.GroundTruthForest(meta)
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
		row.ParentAcc = float64(correct) / float64(total)
		row.PeakRSSKB = peakRSSKB()
		rep.Rows = append(rep.Rows, row)
		fmt.Printf("%7d %8d %10d %12d %12s %8.1f%%\n",
			row.Types, row.Words, row.AdmissiblePairs, row.DistPairsPruned,
			wall.Round(time.Millisecond), 100*row.ParentAcc)
	}
	writeJSON(jsonPath, rep)
}
