// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6) plus the ablations called out in DESIGN.md. Each benchmark prints
// the reproduced rows/series once via b.Log; run with
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/arborescence"
	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/image"
	"repro/internal/objtrace"
	"repro/internal/slm"
	"repro/internal/structural"
	"repro/internal/synth"
)

// BenchmarkTable2 regenerates Table 2: the application distance of every
// benchmark with and without SLMs.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + eval.Table2(rows))
		}
	}
}

// BenchmarkMotivatingDKL regenerates the §2 numbers: the DKL from Stream
// and from ConfirmableStream to FlushableStream, whose ordering picks
// Fig. 6a over Fig. 6b.
func BenchmarkMotivatingDKL(b *testing.B) {
	img, err := compiler.Compile(bench.Motivating(), compiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	stripped := img.Strip()
	for i := 0; i < b.N; i++ {
		res, err := core.Analyze(stripped, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		stream := img.Meta.TypeByName("Stream").VTable
		conf := img.Meta.TypeByName("ConfirmableStream").VTable
		flu := img.Meta.TypeByName("FlushableStream").VTable
		dSF := res.Dist[[2]uint64{stream, flu}]
		dCF := res.Dist[[2]uint64{conf, flu}]
		if dSF >= dCF {
			b.Fatalf("ranking inverted: %v >= %v", dSF, dCF)
		}
		if i == 0 {
			b.Logf("D(Stream||Flushable)=%.3f < D(Confirmable||Flushable)=%.3f (paper: 0.07 < 0.21)", dSF, dCF)
		}
	}
}

// BenchmarkEchoparams regenerates the §6.4 echoparams discussion: 4
// structurally equivalent types, exact recovery with SLMs.
func BenchmarkEchoparams(b *testing.B) {
	bm := bench.ByName("echoparams")
	for i := 0; i < b.N; i++ {
		row, err := eval.Run(bm)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("echoparams: without=%.2f/%.2f with=%.2f/%.2f (paper 0/2.25 -> 0/0)",
				row.WithoutMissing, row.WithoutAdded, row.WithMissing, row.WithAdded)
		}
	}
}

// BenchmarkFig9 regenerates the Fig. 9 benchmark (CGridListCtrlEx).
func BenchmarkFig9(b *testing.B) {
	bm := bench.ByName("CGridListCtrlEx")
	for i := 0; i < b.N; i++ {
		row, err := eval.Run(bm)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("CGridListCtrlEx: with=%.3f/%.3f (paper 0.07/0.07)", row.WithMissing, row.WithAdded)
		}
	}
}

// BenchmarkMetricAblation regenerates the §6.4 "Other Metrics" comparison
// over the structurally unresolvable benchmarks.
func BenchmarkMetricAblation(b *testing.B) {
	for _, metric := range []slm.Metric{slm.MetricKL, slm.MetricJSDivergence, slm.MetricJSDistance} {
		b.Run(metric.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				totM, totA := 0.0, 0.0
				n := 0
				for _, bm := range bench.All() {
					if bm.Resolvable {
						continue
					}
					cfg := core.DefaultConfig()
					cfg.Metric = metric
					row, err := eval.RunWithConfig(bm, cfg)
					if err != nil {
						b.Fatal(err)
					}
					totM += row.WithMissing
					totA += row.WithAdded
					n++
				}
				if i == 0 {
					b.Logf("%s: avg missing %.3f added %.3f", metric, totM/float64(n), totA/float64(n))
				}
			}
		})
	}
}

// BenchmarkSLMDepth is the SLM-order ablation from DESIGN.md.
func BenchmarkSLMDepth(b *testing.B) {
	bm := bench.ByName("echoparams")
	for _, depth := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("D%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.SLMDepth = depth
				row, err := eval.RunWithConfig(bm, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("depth %d: with=%.3f/%.3f", depth, row.WithMissing, row.WithAdded)
				}
			}
		})
	}
}

// BenchmarkTraceletWindow is the tracelet-length ablation (the paper uses
// windows up to length 7).
func BenchmarkTraceletWindow(b *testing.B) {
	bm := bench.ByName("gperf")
	for _, w := range []int{3, 5, 7, 9} {
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Trace = objtrace.DefaultConfig()
				cfg.Trace.Window = w
				row, err := eval.RunWithConfig(bm, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("window %d: with=%.3f/%.3f", w, row.WithMissing, row.WithAdded)
				}
			}
		})
	}
}

// BenchmarkStructuralAblation toggles the §5 phases.
func BenchmarkStructuralAblation(b *testing.B) {
	bm := bench.ByName("tinyserver")
	configs := map[string]structural.Config{
		"full":           {},
		"noSharedSlots":  {DisableSharedSlots: true},
		"noInstances":    {DisableInstanceInstalls: true},
		"noCtorCalls":    {DisableCtorCalls: true},
		"noSizeRule":     {DisableSizeRule: true},
		"noPurecallRule": {DisablePurecallRule: true},
		"structuralNone": {DisableSharedSlots: true, DisableInstanceInstalls: true, DisableCtorCalls: true, DisableSizeRule: true, DisablePurecallRule: true},
	}
	for name, sc := range configs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Structural = sc
				row, err := eval.RunWithConfig(bm, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%s: with=%.3f/%.3f", name, row.WithMissing, row.WithAdded)
				}
			}
		})
	}
}

// BenchmarkMultipleInheritance exercises §5.3.
func BenchmarkMultipleInheritance(b *testing.B) {
	img, err := compiler.Compile(bench.MultipleInheritance(), compiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	stripped := img.Strip()
	for i := 0; i < b.N; i++ {
		res, err := core.Analyze(stripped, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		fax := img.Meta.TypeByName("FaxMachine").VTable
		if len(res.MultiParents[fax]) != 2 {
			b.Fatalf("FaxMachine parents = %v, want 2", res.MultiParents[fax])
		}
	}
}

// BenchmarkScalePipeline is the §3.2 scalability sweep: end-to-end
// analysis time on growing synthetic binaries.
func BenchmarkScalePipeline(b *testing.B) {
	for _, fams := range []int{10, 25, 50} {
		p := synth.DefaultParams(7)
		p.Families = fams
		prog, _ := synth.Generate(p)
		img, err := compiler.Compile(prog, compiler.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		stripped := img.Strip()
		b.Run(fmt.Sprintf("families%d", fams), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(stripped, core.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineWorkers compares the serial pipeline (Workers: 1)
// against worker pools of growing size on the largest Table 2 benchmark.
// On a multi-core machine the parallel variants should approach linear
// speedup; the reconstructed hierarchy is identical in every variant (see
// rock's determinism test). The benchmark that gates performance is
// cmd/rockperf, whose deep-cold workload fans families out to every
// worker.
func BenchmarkPipelineWorkers(b *testing.B) {
	var img *image.Image
	for _, bm := range bench.All() {
		bi, _, err := bm.Build()
		if err != nil {
			b.Fatal(err)
		}
		if img == nil || len(bi.Code)+len(bi.Rodata) > len(img.Code)+len(img.Rodata) {
			img = bi
		}
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(img, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEdmonds measures the arborescence solver alone (the paper: "a
// few minutes to construct the weighted graph and find an arborescence").
func BenchmarkEdmonds(b *testing.B) {
	var edges []arborescence.Edge
	n := 64
	for u := 0; u < n; u++ {
		for v := 1; v < n; v++ {
			if u != v {
				edges = append(edges, arborescence.Edge{From: u, To: v, W: float64((u*7+v*13)%29) + 1})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arborescence.Solve(n, 0, edges); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairSweep measures the KL pair sweep alone: one
// DistanceCalculator.Distance per structurally admissible (parent, child)
// pair of the largest family of a deep synthetic image (random trees of
// depth 5, up to four children per class), with every word distribution
// derived before the timer starts — the reduction the sparse sweep runs
// per family once the models are scored.
func BenchmarkPairSweep(b *testing.B) {
	p := synth.DefaultParams(1)
	p.Families, p.MaxDepth, p.MaxBranch, p.UseReps = 3, 5, 4, 4
	prog, _ := synth.Generate(p)
	img, err := compiler.Compile(prog, compiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Analyze(img.Strip(), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var fam []uint64
	var pairs [][2]uint64
	for _, f := range res.Structural.Families {
		var ps [][2]uint64
		for _, c := range f {
			for _, p := range res.Structural.PossibleParents[c] {
				ps = append(ps, [2]uint64{p, c})
			}
		}
		if len(ps) > len(pairs) {
			fam, pairs = f, ps
		}
	}
	sym := make(map[objtrace.Event]int, len(res.Alphabet))
	for i, e := range res.Alphabet {
		sym[e] = i
	}
	seen := map[string]bool{}
	var words [][]int
	for _, t := range fam {
		for _, tl := range res.Tracelets.PerType[t] {
			if k := tl.String(); !seen[k] {
				seen[k] = true
				w := make([]int, len(tl))
				for i, e := range tl {
					w[i] = sym[e]
				}
				words = append(words, w)
			}
		}
	}
	calc := slm.NewDistanceCalculator(slm.MetricKL, words)
	models := make([][2]*slm.Frozen, len(pairs))
	for i, pc := range pairs {
		models[i] = [2]*slm.Frozen{res.Frozen[pc[0]], res.Frozen[pc[1]]}
		calc.Precompute(models[i][0])
		calc.Precompute(models[i][1])
	}
	b.Logf("family of %d types, %d admissible pairs, %d words", len(fam), len(pairs), len(words))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			pairSink += calc.Distance(m[0], m[1])
		}
	}
}

// pairSink keeps BenchmarkPairSweep's distances live.
var pairSink float64
