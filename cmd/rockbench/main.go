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
//	rockbench -scale        §3.2 scalability: one wide synthetic family at
//	                        -sizes (default 1000,3000,10000 types), printing
//	                        wall-clock and the admissible vs pruned pair
//	                        counts of the sparse candidate-pair sweep
//	rockbench -synth        adversarial accuracy grid: seeded generator
//	                        shapes x compiler hard-case modes, scored per
//	                        edge (precision/recall/F1 + tier); -json FILE
//	                        writes the report (e.g. ACC_synth.json) and
//	                        -floors FILE gates it against checked-in
//	                        accuracy floors (non-zero exit on regression)
//	rockbench -fusion       evidence fusion: rerun the adversarial grid with
//	                        the subtype scores fused into the SLM sweep
//	                        and pair the per-config scores against SLM-only
//	                        (-json FILE writes ACC_fusion.json); the fusion
//	                        contract gates the run and -floors FILE also
//	                        checks the checked-in v2 accuracy floors
//	rockbench -emit DIR     write every benchmark image to DIR (for cmd/rock)
//	rockbench -all          everything above except -emit
//
// Each mode lives in its own file (paper.go, scale.go, synth.go,
// fusion.go); harness.go holds the shared JSON sink. Performance is
// measured by the one benchmark harness, cmd/rockperf (BENCHMARK.json).
//
// The global -workers flag bounds the analysis worker pool in every mode
// (0 = all CPUs, 1 = serial), and -cache and -evidence (slm, the
// default, or slm,subtype; anything else exits 2) thread the snapshot
// cache and evidence settings into every analysis. There is no
// -incr-from: one explicit prior cannot serve the many different images
// a mode analyzes, so each image's prior comes from the -cache directory. -fusion runs
// both evidence settings whatever -evidence says. -cpuprofile FILE and
// -memprofile FILE write pprof profiles covering whichever experiments
// ran:
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

// shared holds the analysis flags (-workers, -cache, -evidence) every
// mode obeys.
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
	synthGrid := flag.Bool("synth", false, "run the adversarial accuracy grid and score reconstruction per edge")
	fusionMode := flag.Bool("fusion", false, "rerun the adversarial grid with the subtype evidence fused in and compare against SLM-only")
	floors := flag.String("floors", "", "with -synth or -fusion: compare the report against this accuracy-floors JSON file and exit non-zero on regression")
	jsonOut := flag.String("json", "", "write the -synth or -fusion report to this JSON file")
	emit := flag.String("emit", "", "write benchmark images to this directory")
	all := flag.Bool("all", false, "run every experiment")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU pprof profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap pprof profile to this file")
	shared = cliutil.Register(flag.CommandLine, false)
	flag.Parse()
	if err := shared.Resolve(); err != nil {
		cliutil.Fatal("rockbench", err)
	}
	if *all {
		*table2, *motivating, *slmdump, *fig9, *metrics, *scale, *synthGrid, *fusionMode = true, true, true, true, true, true, true, true
	}
	if *jsonOut != "" && *synthGrid == *fusionMode {
		cliutil.Usage("rockbench", "-json requires exactly one of -synth or -fusion")
	}
	if *floors != "" && !*synthGrid && !*fusionMode {
		cliutil.Usage("rockbench", "-floors requires -synth or -fusion")
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
		runScale(*sizes)
	}
	if *synthGrid {
		ran = true
		runSynth(*jsonOut, *floors)
	}
	if *fusionMode {
		ran = true
		runFusion(*jsonOut, *floors)
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
