package eval

import (
	"context"
	"strings"
	"testing"

	"repro/internal/arborescence"
	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/slm"
)

func TestRunWithConfigMetricSwap(t *testing.T) {
	b := bench.ByName("echoparams")
	cfg := core.DefaultConfig()
	cfg.Metric = slm.MetricJSDivergence
	row, err := RunWithConfig(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The JS variants lose the asymmetry; on the chain benchmark they must
	// not beat DKL's exact recovery.
	klRow, err := RunWithConfig(b, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if klRow.WithMissing+klRow.WithAdded > row.WithMissing+row.WithAdded {
		t.Errorf("DKL (%v/%v) should be at least as good as JS (%v/%v)",
			klRow.WithMissing, klRow.WithAdded, row.WithMissing, row.WithAdded)
	}
}

func TestGroundTruthForestExcludesSecondaryTables(t *testing.T) {
	img, err := buildMI()
	if err != nil {
		t.Fatal(err)
	}
	gt, err := GroundTruthForest(img.Meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range img.Meta.Types {
		if tm.Secondary && gt.Has(tm.VTable) {
			t.Errorf("secondary table %#x in ground-truth forest", tm.VTable)
		}
		if !tm.Secondary && !gt.Has(tm.VTable) {
			t.Errorf("primary table %#x missing from ground-truth forest", tm.VTable)
		}
	}
}

func TestScoreUsesWorstCoOptimal(t *testing.T) {
	// td_unittest: the two-way splice direction is ambiguous in principle;
	// Score must report a single consistent worst case (added exactly 1).
	b := bench.ByName("td_unittest")
	row, err := RunWithConfig(b, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if row.WithAdded != 0.5 {
		t.Errorf("worst-case added = %v, want 0.5 (one spurious successor over two types)", row.WithAdded)
	}
	// Analyzer: the worst of the 7,776 survivors of its six-variant
	// plateau adds 25 spurious successors over 24 types.
	row, err = RunWithConfig(bench.ByName("Analyzer"), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if row.WithAdded != 25.0/24 {
		t.Errorf("Analyzer worst-case added = %v, want 25/24", row.WithAdded)
	}
}

// refFamilyError is the per-survivor map-based error count worstCase
// replaced, kept as its oracle: the missing/added totals one family
// contributes under one hierarchy, given as a child→parent map.
func refFamilyError(types []uint64, arb map[uint64]uint64, gtSucc map[uint64]map[uint64]bool, counted map[uint64]bool) (missing, added int) {
	children := map[uint64][]uint64{}
	for c, p := range arb {
		children[p] = append(children[p], c)
	}
	var succOf func(t uint64, out map[uint64]bool)
	succOf = func(t uint64, out map[uint64]bool) {
		for _, c := range children[t] {
			if !out[c] {
				out[c] = true
				succOf(c, out)
			}
		}
	}
	for _, t := range types {
		if !counted[t] {
			continue
		}
		h := map[uint64]bool{}
		succOf(t, h)
		g := gtSucc[t]
		for s := range g {
			if !h[s] {
				missing++
			}
		}
		for s := range h {
			if !g[s] {
				added++
			}
		}
	}
	return missing, added
}

// TestWorstCaseMatchesReference pins worstCase's bitset scoring against
// refFamilyError over every survivor of every Table 2 family.
func TestWorstCaseMatchesReference(t *testing.T) {
	outs, err := RunBenchmarksWithConfig(context.Background(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		gt, err := GroundTruthForest(o.Meta)
		if err != nil {
			t.Fatal(err)
		}
		types, err := countedTypes(o.Bench, o.Meta)
		if err != nil {
			t.Fatal(err)
		}
		counted := map[uint64]bool{}
		for _, c := range types {
			counted[c] = true
		}
		gtSucc := gt.AllSuccessors()
		for _, fr := range o.Res.Families {
			worst, wm, wa := -1, 0, 0
			fr.Survivors.Each(func(parent []int) bool {
				arb := map[uint64]uint64{}
				for i, c := range fr.Types {
					if p := parent[i+1]; p > 0 {
						arb[c] = fr.Types[p-1]
					}
				}
				if m, a := refFamilyError(fr.Types, arb, gtSucc, counted); m+a > worst {
					worst, wm, wa = m+a, m, a
				}
				return true
			})
			m, a, err := worstCase(fr, gtSucc, counted)
			if err != nil {
				t.Fatal(err)
			}
			if m != wm || a != wa {
				t.Errorf("%s family %#x: worst case %d/%d, reference %d/%d", o.Bench.Name, fr.Types[0], m, a, wm, wa)
			}
		}
	}
}

// TestWorstCaseCap: a family with more survivors than maxSurvivors is an
// error, not a smaller worst case. Node 1 hangs off the root and every
// other node off the root or node 1 — 2^21 co-optimal hierarchies.
func TestWorstCaseCap(t *testing.T) {
	fr := core.FamilyResult{Survivors: arborescence.CoOptimal{Tight: [][]int{nil, {0}}}}
	fr.Types = append(fr.Types, 0x1000)
	for i := 0; i < 21; i++ {
		fr.Types = append(fr.Types, uint64(0x2000+8*i))
		fr.Survivors.Tight = append(fr.Survivors.Tight, []int{0, 1})
	}
	if _, _, err := worstCase(fr, nil, nil); err == nil || !strings.Contains(err.Error(), "2097152 co-optimal hierarchies exceed") {
		t.Fatalf("err = %v, want the survivor cap", err)
	}
	fr.Types, fr.Survivors.Tight = fr.Types[:20], fr.Survivors.Tight[:21]
	if _, _, err := worstCase(fr, nil, nil); err != nil {
		t.Fatalf("2^19 survivors: %v", err)
	}
}

// BenchmarkScoreTable2 measures Score over the 19 Table 2 analyses
// (analyzed before the timer starts), the worst-case stream over
// Analyzer's and Smoothing's 7,776 survivors included.
func BenchmarkScoreTable2(b *testing.B) {
	outs, err := RunBenchmarksWithConfig(context.Background(), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range outs {
			if _, err := Score(o.Bench, o.Image, o.Meta, o.Res); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// buildMI compiles the multiple-inheritance example with metadata.
func buildMI() (*image.Image, error) {
	return compiler.Compile(bench.MultipleInheritance(), compiler.DefaultOptions())
}
