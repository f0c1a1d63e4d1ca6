package main

// The paper-facing modes: every table and figure of the evaluation, plus
// -emit for producing cmd/rock input images.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/slm"
)

func runTable2() {
	fmt.Println("== Table 2: application distance from H_P ==")
	rows, err := eval.RunAllWithConfig(benchConfig())
	if err != nil {
		fatal(err)
	}
	fmt.Println(eval.Table2(rows))
}

// runMotivating reproduces the §2 walk-through end to end.
func runMotivating(w io.Writer, cfg core.Config) {
	fmt.Fprintln(w, "== §2 motivating example (Stream / Confirmable / Flushable) ==")
	img, err := compiler.Compile(bench.Motivating(), compiler.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	res, err := core.Analyze(img.Strip(), cfg)
	if err != nil {
		fatal(err)
	}
	name := core.TypeNamer(img.Meta)

	fmt.Fprintln(w, "\nFig. 7 — usage sequences extracted from the stripped binary:")
	var vts []uint64
	for _, v := range res.VTables {
		vts = append(vts, v.Addr)
	}
	sort.Slice(vts, func(i, j int) bool { return vts[i] < vts[j] })
	for _, t := range vts {
		fmt.Fprintf(w, "  %s:\n", name(t))
		for _, seq := range res.Tracelets.RawPerType[t] {
			s := ""
			for i, e := range seq {
				if i > 0 {
					s += "; "
				}
				s += e.String()
			}
			fmt.Fprintf(w, "    %s\n", s)
		}
	}

	// The walk-through prints every ordered pair, not just the admissible
	// candidates the sweep scored, so it measures each one directly over
	// the family's word set.
	if len(res.Structural.Families) != 1 {
		fatal(fmt.Errorf("motivating example: %d type families, want 1", len(res.Structural.Families)))
	}
	calc := slm.NewDistanceCalculator(cfg.Metric, res.FamilyWords(res.Structural.Families[0]))
	fmt.Fprintln(w, "\npairwise DKL distances (parent || child):")
	for _, p := range vts {
		for _, c := range vts {
			if p == c {
				continue
			}
			fmt.Fprintf(w, "  D( %-22s || %-22s ) = %.4f\n", name(p), name(c), calc.Distance(res.Frozen[p], res.Frozen[c]))
		}
	}

	fmt.Fprintln(w, "\nreconstructed hierarchy (Fig. 6a):")
	fmt.Fprint(w, res.Hierarchy.String(name))
}

// runSLMDump prints the trained SLM of the FlushableStream type — the
// paper's Fig. 8 "trained statistical language model of Class3".
func runSLMDump(w io.Writer, cfg core.Config) {
	fmt.Fprintln(w, "== Fig. 8: trained SLM (depth 2) of FlushableStream (Class3) ==")
	img, err := compiler.Compile(bench.Motivating(), compiler.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	res, err := core.Analyze(img.Strip(), cfg)
	if err != nil {
		fatal(err)
	}
	tm := img.Meta.TypeByName("FlushableStream")
	if tm == nil {
		fatal(fmt.Errorf("FlushableStream not emitted"))
	}
	fmt.Fprint(w, res.Frozen[tm.VTable].Dump(res.SymbolName))
}

func runFig9() {
	fmt.Println("== Fig. 9: CGridListCtrlEx ground truth vs reconstruction ==")
	b := bench.ByName("CGridListCtrlEx")
	img, meta, err := b.Build()
	if err != nil {
		fatal(err)
	}
	res, err := core.Analyze(img, benchConfig())
	if err != nil {
		fatal(err)
	}
	gt, err := eval.GroundTruthForest(meta)
	if err != nil {
		fatal(err)
	}
	name := core.TypeNamer(meta)
	fmt.Println("\n(a) ground truth (CDialog and CEdit were optimized out):")
	fmt.Print(gt.String(name))
	fmt.Println("\n(b) reconstructed (the orphan pairs are spliced):")
	fmt.Print(res.Hierarchy.String(name))
}

// runMetrics reruns the nine unresolvable benchmarks under each §6.4
// metric and reports average with-SLM errors: the asymmetric DKL should
// dominate the symmetric variants.
func runMetrics() {
	fmt.Println("== §6.4 Other Metrics: DKL vs JS-divergence vs JS-distance ==")
	for _, metric := range []slm.Metric{slm.MetricKL, slm.MetricJSDivergence, slm.MetricJSDistance} {
		totM, totA := 0.0, 0.0
		n := 0
		for _, b := range bench.All() {
			if b.Resolvable {
				continue
			}
			cfg := benchConfig()
			cfg.Metric = metric
			row, err := eval.RunWithConfig(b, cfg)
			if err != nil {
				fatal(err)
			}
			totM += row.WithMissing
			totA += row.WithAdded
			n++
		}
		fmt.Printf("  %-14s avg missing %.3f  avg added %.3f  (9 unresolvable benchmarks)\n",
			metric.String(), totM/float64(n), totA/float64(n))
	}
}

func runEmit(dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	for _, b := range bench.All() {
		img, meta, err := b.Build()
		if err != nil {
			fatal(err)
		}
		img.Meta = meta // keep ground truth for display by cmd/rock
		data, err := img.Marshal()
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(dir, b.Name+".rbin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}
}
