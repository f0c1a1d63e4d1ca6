// Command rock analyzes a serialized binary image and reports the
// reconstructed class hierarchy.
//
// Usage:
//
//	rock [-metric kl|js-divergence|js-distance] [-depth D] [-window W]
//	     [-workers N] [-cache DIR] [-incr-from SNAP]
//	     [-evidence slm|slm,subtype]
//	     [-structural-only] [-stats] [-trace FILE] [-v] image.rbin
//	rock -corpus DIR [flags]
//
// The input is an image produced by this repository's compiler (see
// cmd/rockbench -emit or the examples). If the image carries ground-truth
// metadata, it is stripped before analysis and used only to print names.
//
// With -corpus DIR, every *.rbin under DIR is analyzed as one batch over a
// single shared worker pool (-workers bounds the whole batch, not each
// image): results stream as they complete and a summary line per image is
// printed in name order at the end. Combined with -cache, images whose
// snapshots are fully warm bypass the analysis queue entirely.
//
// With -cache DIR, analysis artifacts are persisted as content-addressed
// snapshots under DIR, one slot per binary: re-analyzing an unchanged
// binary under an unchanged configuration skips the whole pipeline. To
// force a cold run, omit -cache or delete the image's .rsnap file.
//
// Any other cache miss runs the analysis on the version-diff lane when a
// usable prior snapshot exists. Under a changed configuration that prior is
// the binary's own slot, as long as -window is unchanged: -metric or
// -evidence reuses every function and model, -depth every function. When
// the binary itself changed (a new version of the same program), -incr-from
// names the prior version's .rsnap explicitly, and with -cache alone the
// nearest prior of the same image name is auto-discovered in the cache
// directory. Functions whose content digests are unchanged
// skip re-extraction, types whose training inputs are unchanged keep their
// models, and untouched families restore verbatim — the report is
// identical to a cold run either way. -stats shows the reuse as the
// fn_digest_hit/fn_digest_miss, types_retrained, and families_resolved
// counters.
//
// -evidence selects the edge evidence of the hierarchy solve: "slm" (the
// default) is the paper's behavioral divergence sweep alone, and
// "slm,subtype" adds a constraint-based structural subtyping scorer
// (vtable-slot overlap, construction install flow, parent-method calls)
// at its calibrated weight, 5. The scorer holds up on binaries whose
// behavioral evidence was erased by devirtualization, COMDAT folding, or
// ctor inlining. With -stats the two scorers report their cost in the
// evidence:slm and evidence:subtype rows. Any other -evidence value is a usage error, and so is an
// invalid -metric, a negative -depth or a negative -window (exit 2).
//
// -stats prints the per-stage observability table after the analysis:
// wall time, allocation estimates, and cache-hit attribution (on a warm
// run every stage shows as "cached"; disabled ones show as "off"). In
// corpus mode the table is printed per image. -trace FILE additionally
// writes the run as chrome-tracing JSON — open it in Perfetto
// (ui.perfetto.dev) to see the stages and every pool fan-out helper; in
// corpus mode each image draws on its own lane, making the batch
// scheduling visible. Neither flag changes results.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cliutil"
	"repro/internal/image"
	"repro/rock"
)

func main() {
	metric := flag.String("metric", "kl", "pairwise distance: kl, js-divergence, js-distance")
	depth := flag.Int("depth", 2, "SLM maximum order D")
	window := flag.Int("window", 7, "object tracelet window length")
	shared := cliutil.Register(flag.CommandLine, true)
	structuralOnly := flag.Bool("structural-only", false, "skip the behavioral analysis (type families and possible parents only)")
	corpusDir := flag.String("corpus", "", "analyze every *.rbin under this directory as one batch on a shared worker pool")
	stats := flag.Bool("stats", false, "print the per-stage observability table (wall time, allocs, cache attribution)")
	traceFile := flag.String("trace", "", "write a chrome-tracing (Perfetto) JSON trace of the run to this file")
	verbose := flag.Bool("v", false, "print families and candidate parents")
	flag.Parse()
	if err := shared.Resolve(); err != nil {
		cliutil.Fatal("rock", err)
	}
	// Ctrl-C / SIGTERM cancels the analysis cleanly (workers drain, the
	// snapshot store is never left mid-write); a second signal kills.
	ctx, stop := cliutil.WithSignals(context.Background())
	defer stop()
	opts := rock.Options{
		Metric:          *metric,
		SLMDepth:        *depth,
		Window:          *window,
		Workers:         shared.Workers,
		CacheDir:        shared.CacheDir,
		IncrementalFrom: shared.IncrFrom,
		Subtype:         shared.Subtype,
		StructuralOnly:  *structuralOnly,
	}
	var trace *rock.Trace
	if *traceFile != "" {
		trace = rock.NewTrace()
	}
	if *corpusDir != "" {
		if flag.NArg() != 0 {
			cliutil.Usage("rock", "usage: rock -corpus DIR [flags]")
		}
		runCorpus(ctx, *corpusDir, opts, *stats, trace)
		writeTrace(trace, *traceFile)
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		cliutil.Usage("rock", "usage: rock [flags] image.rbin")
	}
	if *stats || trace != nil {
		opts.Observer = rock.NewObserver()
		opts.Observer.Trace = trace
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	rep, err := rock.AnalyzeContext(ctx, data, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("binary types: %d, families: %d, structurally resolvable: %v\n",
		len(rep.Types), len(rep.Families), rep.StructurallyResolved)
	if *verbose {
		for i, fam := range rep.Families {
			fmt.Printf("family %d:\n", i)
			for _, t := range fam {
				var cands []string
				for _, p := range rep.PossibleParents[t] {
					cands = append(cands, rep.Name(p))
				}
				sort.Strings(cands)
				fmt.Printf("  %-32s candidates: %v\n", rep.Name(t), cands)
			}
		}
	}
	if *stats && rep.Stats != nil {
		fmt.Println("\nper-stage stats:")
		fmt.Print(rep.Stats.Table())
	}
	writeTrace(trace, *traceFile)
	if *structuralOnly {
		return
	}
	fmt.Println("\nreconstructed hierarchy:")
	fmt.Print(rep.HierarchyString())
	if len(rep.MultiParents) > 0 {
		fmt.Println("multiple-inheritance types:")
		for t, ps := range rep.MultiParents {
			fmt.Printf("  %s parents:", rep.Name(t))
			for _, p := range ps {
				fmt.Printf(" %s", rep.Name(p))
			}
			fmt.Println()
		}
	}
}

// writeTrace serializes the chrome-tracing sink, if one was requested.
func writeTrace(trace *rock.Trace, path string) {
	if trace == nil {
		return
	}
	if err := trace.WriteFile(path); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "rock: wrote trace to %s (open in ui.perfetto.dev)\n", path)
}

// runCorpus analyzes every *.rbin under dir as one batch: the images are
// loaded up front, scheduled over a single shared worker pool, progress
// streams as analyses complete, and per-image summaries print in file
// order at the end (the batch result is deterministic — identical to
// analyzing each image alone).
func runCorpus(ctx context.Context, dir string, opts rock.Options, stats bool, trace *rock.Trace) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.rbin"))
	if err != nil {
		fatal(err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		fatal(fmt.Errorf("no *.rbin images under %s", dir))
	}
	imgs := make([]*image.Image, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fatal(err)
		}
		if imgs[i], err = image.Load(data); err != nil {
			fatal(fmt.Errorf("%s: %w", p, err))
		}
	}
	start := time.Now()
	rep, err := rock.AnalyzeCorpus(ctx, imgs, rock.CorpusOptions{
		Options: opts,
		Observe: stats,
		Trace:   trace,
		OnResult: func(it rock.CorpusItem) {
			state := "done"
			if it.Warm {
				state = "warm"
			}
			if it.Err != nil {
				state = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %-40s %s\n",
				it.Index+1, len(paths), filepath.Base(paths[it.Index]), state)
		},
	})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	failed := 0
	for i, it := range rep.Items {
		name := filepath.Base(paths[i])
		if it.Err != nil {
			failed++
			fmt.Printf("%-40s error: %v\n", name, it.Err)
			continue
		}
		fmt.Printf("%-40s types %3d  families %3d  edges %3d  resolvable %-5v",
			name, len(it.Report.Types), len(it.Report.Families),
			len(it.Report.Edges), it.Report.StructurallyResolved)
		if it.Warm {
			fmt.Print("  (warm)")
		}
		fmt.Println()
		if stats && it.Stats != nil {
			fmt.Printf("  queued %s before start\n", it.Wait.Round(time.Microsecond))
			fmt.Print(it.Stats.Table())
		}
	}
	fmt.Printf("corpus: %d images (%d warm, %d cold) in %s\n",
		len(paths), rep.Warm, len(paths)-rep.Warm, elapsed.Round(time.Millisecond))
	if failed > 0 {
		fatal(fmt.Errorf("%d of %d images failed", failed, len(paths)))
	}
}

func fatal(err error) {
	cliutil.Fatal("rock", err)
}
