// Command rockbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index):
//
//	rockbench -table2       Table 2 (application distance, 19 benchmarks)
//	rockbench -motivating   §2 walk-through: Fig. 7 sequences, DKL values,
//	                        and the chosen hierarchy (Fig. 6a)
//	rockbench -slmdump      Fig. 8: the trained depth-2 SLM of Class3
//	rockbench -fig9         Fig. 9: CGridListCtrlEx ground truth vs
//	                        reconstruction
//	rockbench -metrics      §6.4 "Other Metrics": DKL vs JS variants
//	rockbench -scale        sub-quadratic sweep benchmark: one wide synthetic
//	                        family at -sizes (default 1000,3000,10000 types),
//	                        wall-clock and the admissible vs pruned pair
//	                        counts of the sparse candidate-pair sweep;
//	                        -json FILE writes the result, e.g.
//	                        BENCH_scale.json
//	rockbench -pipeline     serial vs parallel pipeline wall-clock on the
//	                        largest benchmark (-json FILE writes the result)
//	rockbench -slm          SLM micro-bench: map-based builder vs frozen
//	                        flat-trie query kernel (-json FILE writes the
//	                        result, e.g. BENCH_slm.json)
//	rockbench -snapshot     cold vs warm end-to-end analysis over the whole
//	                        Table 2 suite through the content-addressed
//	                        snapshot cache (-json FILE writes the result,
//	                        e.g. BENCH_snapshot.json)
//	rockbench -synth        adversarial accuracy grid: seeded generator
//	                        shapes x compiler hard-case modes, scored per
//	                        edge (precision/recall/F1 + tier); -json FILE
//	                        writes the report (e.g. ACC_synth.json) and
//	                        -floors FILE gates it against checked-in
//	                        accuracy floors (non-zero exit on regression)
//	rockbench -fusion       evidence fusion: rerun the adversarial grid with
//	                        the subtype provider fused into the SLM sweep,
//	                        pair the per-config scores against SLM-only
//	                        (-json FILE writes ACC_fusion.json), and measure
//	                        the fused sweep's overhead with per-provider
//	                        attribution on the largest benchmark
//	                        (-fusion-bench FILE writes BENCH_fusion.json);
//	                        -floors FILE additionally gates both halves
//	                        against the checked-in v2 accuracy floors
//	rockbench -incr         incremental re-analysis: a deep synthetic binary
//	                        is analyzed once to persist its snapshot, then
//	                        re-linked with -patches functions modified
//	                        (default 1,5,25) and re-analyzed both from
//	                        scratch and through the version-diff warm lane
//	                        (-incr-from); every incremental result is
//	                        asserted deep-equal to the from-scratch one, and
//	                        a 1-function patch must be at least 10x faster
//	                        than cold (-json FILE writes the result, e.g.
//	                        BENCH_incr.json)
//	rockbench -serve        rockd daemon loadgen: starts an in-process
//	                        daemon on a loopback listener and drives it
//	                        over HTTP — 100 concurrent identical
//	                        submissions must collapse to exactly 1 analysis
//	                        (singleflight), hot-cache hits must beat the
//	                        cold analysis by >= 50x at p50, and the
//	                        interactive hot path must stay under one
//	                        cold-analysis time while a batch backlog
//	                        drains; all three are fatal assertions (-json
//	                        FILE writes the result, e.g. BENCH_serve.json)
//	rockbench -emit DIR     write every benchmark image to DIR (for cmd/rock)
//	rockbench -all          everything above except -emit
//
// Each mode lives in its own file (paper.go, pipeline.go, slm.go,
// snapshot.go, synth.go, fusion.go, incr.go, serve.go) over
// the shared harness in harness.go.
//
// The global -workers flag bounds the analysis worker pool in every mode
// (0 = all CPUs, 1 = serial), and -cache/-invalidate thread the snapshot
// cache settings into every analysis (the -snapshot mode measures its own
// temporary caches regardless). -cpuprofile FILE and
// -memprofile FILE write pprof profiles covering whichever experiments
// ran, so perf work can measure instead of guess:
//
//	rockbench -table2 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/cliutil"
	"repro/internal/core"
)

// shared holds the -workers/-cache/-invalidate flags every mode obeys.
var shared *cliutil.Flags

// benchConfig returns the paper-default pipeline configuration with the
// shared flags applied.
func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	if err := shared.Apply(&cfg); err != nil {
		fatal(err)
	}
	return cfg
}

func main() {
	table2 := flag.Bool("table2", false, "regenerate Table 2")
	motivating := flag.Bool("motivating", false, "run the §2 motivating example")
	slmdump := flag.Bool("slmdump", false, "dump the Fig. 8 SLM")
	fig9 := flag.Bool("fig9", false, "print the Fig. 9 hierarchies")
	metrics := flag.Bool("metrics", false, "run the §6.4 metric ablation")
	scale := flag.Bool("scale", false, "benchmark the sparse distance sweep on one wide synthetic family")
	sizes := flag.String("sizes", "1000,3000,10000", "with -scale: comma-separated family sizes (types per family)")
	pipeline := flag.Bool("pipeline", false, "measure serial vs parallel pipeline wall-clock")
	slmBench := flag.Bool("slm", false, "measure the builder vs frozen SLM query kernel")
	snapBench := flag.Bool("snapshot", false, "measure cold vs warm analysis through the snapshot cache")
	synthGrid := flag.Bool("synth", false, "run the adversarial accuracy grid and score reconstruction per edge")
	fusionMode := flag.Bool("fusion", false, "rerun the adversarial grid with the subtype evidence provider fused in, compare against SLM-only, and measure the overhead")
	fusionBenchOut := flag.String("fusion-bench", "", "with -fusion: write the timing artifact to this JSON file (e.g. BENCH_fusion.json)")
	floors := flag.String("floors", "", "with -synth or -fusion: compare the report against this accuracy-floors JSON file and exit non-zero on regression")
	incrBench := flag.Bool("incr", false, "measure incremental re-analysis of a patched binary against a prior snapshot vs from scratch")
	serveBench := flag.Bool("serve", false, "load-generate against an in-process rockd daemon and assert its serving-path claims (singleflight, hot cache, admission isolation)")
	patches := flag.String("patches", "1,5,25", "with -incr: comma-separated patch sizes (functions modified per case)")
	jsonOut := flag.String("json", "", "write the -scale, -pipeline, -slm, -snapshot, -synth, -fusion, -incr, or -serve result to this JSON file")
	emit := flag.String("emit", "", "write benchmark images to this directory")
	all := flag.Bool("all", false, "run every experiment")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU pprof profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap pprof profile to this file")
	shared = cliutil.Register(flag.CommandLine)
	flag.Parse()
	if _, err := shared.Resolve(); err != nil {
		cliutil.Usage("rockbench", err.Error())
	}
	if *all {
		*table2, *motivating, *slmdump, *fig9, *metrics, *scale, *pipeline, *slmBench, *snapBench, *synthGrid, *fusionMode, *incrBench, *serveBench = true, true, true, true, true, true, true, true, true, true, true, true, true
	}
	jsonModes := 0
	for _, on := range []bool{*scale, *pipeline, *slmBench, *snapBench, *synthGrid, *fusionMode, *incrBench, *serveBench} {
		if on {
			jsonModes++
		}
	}
	if *jsonOut != "" && jsonModes > 1 && !*all {
		cliutil.Usage("rockbench", "-json names a single output file; run -scale, -pipeline, -slm, -snapshot, -synth, -fusion, -incr, and -serve separately")
	}
	if *floors != "" && !*synthGrid && !*fusionMode {
		cliutil.Usage("rockbench", "-floors requires -synth or -fusion")
	}
	if *fusionBenchOut != "" && !*fusionMode {
		cliutil.Usage("rockbench", "-fusion-bench requires -fusion")
	}
	if *patches != "1,5,25" && !*incrBench {
		cliutil.Usage("rockbench", "-patches requires -incr")
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	ran := false
	if *table2 {
		ran = true
		runTable2()
	}
	if *motivating {
		ran = true
		runMotivating(os.Stdout, benchConfig())
	}
	if *slmdump {
		ran = true
		runSLMDump(os.Stdout, benchConfig())
	}
	if *fig9 {
		ran = true
		runFig9()
	}
	if *metrics {
		ran = true
		runMetrics()
	}
	if *scale {
		ran = true
		runScale(*jsonOut, *sizes)
	}
	if *pipeline {
		ran = true
		jp := *jsonOut
		if *scale {
			jp = "" // -all: the single -json path belongs to -scale
		}
		runPipeline(jp)
	}
	if *slmBench {
		ran = true
		jp := *jsonOut
		if *scale || *pipeline {
			jp = "" // -all: the single -json path belongs to an earlier mode
		}
		runSLMBench(jp)
	}
	if *snapBench {
		ran = true
		jp := *jsonOut
		if *scale || *pipeline || *slmBench {
			jp = "" // -all: the single -json path belongs to an earlier mode
		}
		runSnapshotBench(jp)
	}
	if *synthGrid {
		ran = true
		jp := *jsonOut
		if *scale || *pipeline || *slmBench || *snapBench {
			jp = "" // -all: the single -json path belongs to an earlier mode
		}
		runSynth(jp, *floors)
	}
	if *fusionMode {
		ran = true
		jp := *jsonOut
		if *scale || *pipeline || *slmBench || *snapBench || *synthGrid {
			jp = "" // -all: the single -json path belongs to an earlier mode
		}
		runFusion(jp, *fusionBenchOut, *floors)
	}
	if *incrBench {
		ran = true
		jp := *jsonOut
		if *scale || *pipeline || *slmBench || *snapBench || *synthGrid || *fusionMode {
			jp = "" // -all: the single -json path belongs to an earlier mode
		}
		runIncrBench(jp, *patches)
	}
	if *serveBench {
		ran = true
		jp := *jsonOut
		if *scale || *pipeline || *slmBench || *snapBench || *synthGrid || *fusionMode || *incrBench {
			jp = "" // -all: the single -json path belongs to an earlier mode
		}
		runServe(jp)
	}
	if *emit != "" {
		ran = true
		runEmit(*emit)
	}
	if !ran {
		flag.Usage()
		os.Exit(cliutil.ExitUsage)
	}
}

func fatal(err error) {
	cliutil.Fatal("rockbench", err)
}
