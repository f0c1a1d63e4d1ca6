package core_test

import (
	"reflect"
	"testing"

	"repro/internal/arborescence"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/image"
	"repro/internal/slm"
)

// reference re-solves every family of res the dense way, entirely in test
// code: it scores all n(n-1) ordered pairs of each family with
// slm.DistanceCalculator over the family's word set, sets the virtual-root
// weight from the exact dense maximum (Heuristic 4.1), and derives the
// co-optimal structure over the admissible edges, then majority-votes it.
// It returns the full distance table, the per-family survivor structures,
// and the forest built from each family's Edmonds optimum, or its first
// streamed survivor when the optimum does not survive.
func reference(t *testing.T, res *core.Result, cfg core.Config) (map[[2]uint64]float64, []arborescence.CoOptimal, *hierarchy.Forest) {
	t.Helper()
	dist := map[[2]uint64]float64{}
	survivors := make([]arborescence.CoOptimal, len(res.Structural.Families))
	var all []uint64
	for _, v := range res.VTables {
		all = append(all, v.Addr)
	}
	forest := hierarchy.NewForest(all)
	for fi, fam := range res.Structural.Families {
		if len(fam) == 1 {
			survivors[fi] = arborescence.CoOptimal{Tight: [][]int{nil, {0}}}
			continue
		}
		calc := slm.NewDistanceCalculator(cfg.Metric, core.FamilyWords(res, fam))
		maxD := 0.0
		for _, p := range fam {
			for _, c := range fam {
				if p == c {
					continue
				}
				d := calc.Distance(res.Frozen[p], res.Frozen[c])
				dist[[2]uint64{p, c}] = d
				maxD = max(maxD, d)
			}
		}
		nodeOf := map[uint64]int{}
		var edges []arborescence.Edge
		for i, t := range fam {
			nodeOf[t] = i + 1
			edges = append(edges, arborescence.Edge{From: 0, To: i + 1, W: maxD*cfg.RootWeightFactor + 1})
		}
		for _, c := range fam {
			for _, p := range res.Structural.PossibleParents[c] {
				edges = append(edges, arborescence.Edge{From: nodeOf[p], To: nodeOf[c], W: dist[[2]uint64{p, c}]})
			}
		}
		sol, err := arborescence.Solve(len(fam)+1, 0, edges)
		if err != nil {
			t.Fatalf("family %v: %v", fam, err)
		}
		kept := sol.CoOptimal(edges, cfg.EnumEps).Vote()
		survivors[fi] = *kept
		chosen := sol.Parents
		if !kept.Contains(chosen) {
			kept.Each(func(p []int) bool {
				chosen = append([]int(nil), p...)
				return false
			})
		}
		for i, c := range fam {
			if p := chosen[i+1]; p > 0 {
				if err := forest.SetParent(c, fam[p-1]); err != nil {
					t.Fatalf("family %v: %v", fam, err)
				}
			}
		}
	}
	return dist, survivors, forest
}

// sparseVsReference analyzes one image at the given worker count and
// checks the sparse sweep's contract against the dense reference:
// identical hierarchy, arborescence sets and multi-parent choices (family
// Weight is excluded — the sparse root weight comes from PairBound, a
// bound on the dense maximum, not the maximum itself), and a Dist map
// whose keys are exactly the structurally admissible pairs, every value
// bit-identical to the reference entry.
func sparseVsReference(t *testing.T, label string, img *image.Image, workers int) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	res, err := core.Analyze(img, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	dist, survivors, forest := reference(t, res, cfg)
	if !reflect.DeepEqual(res.Hierarchy, forest) {
		t.Errorf("%s: sparse and reference hierarchies differ", label)
	}
	if !reflect.DeepEqual(res.MultiParents, core.MultiParents(res, dist, forest)) {
		t.Errorf("%s: sparse and reference multi-parent choices differ", label)
	}
	if len(res.Families) != len(survivors) {
		t.Fatalf("%s: %d sparse families, %d reference", label, len(res.Families), len(survivors))
	}
	for i, fr := range res.Families {
		if !reflect.DeepEqual(fr.Types, res.Structural.Families[i]) ||
			!reflect.DeepEqual(fr.Survivors, survivors[i]) {
			t.Errorf("%s: family %d co-optimal survivors differ", label, i)
		}
	}
	admissible := 0
	for c, ps := range res.Structural.PossibleParents {
		for _, p := range ps {
			admissible++
			sd, ok := res.Dist[[2]uint64{p, c}]
			if !ok {
				t.Errorf("%s: sparse Dist missing admissible pair (%#x, %#x)", label, p, c)
				continue
			}
			if rd := dist[[2]uint64{p, c}]; rd != sd {
				t.Errorf("%s: Dist[%#x,%#x] sparse %v, reference %v", label, p, c, sd, rd)
			}
		}
	}
	if len(res.Dist) != admissible {
		t.Errorf("%s: sparse Dist has %d entries, want exactly the %d admissible pairs",
			label, len(res.Dist), admissible)
	}
}

// TestSparseSweepMatchesDense is the sparse sweep's acceptance property
// over the whole Table 2 suite: for every benchmark, at a serial and a
// contended worker count, the default sparse candidate-pair sweep
// reconstructs exactly what a dense n×n re-solve does.
func TestSparseSweepMatchesDense(t *testing.T) {
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, workers := range []int{1, 8} {
			sparseVsReference(t, b.Name, img, workers)
		}
	}
}

// TestSparseSweepMatchesDenseSynth extends the equivalence check to the
// adversarial corner of the input space: every hostile (non-friendly)
// configuration of the synth grid — merged families, devirtualized call
// sites, folded vtables, partial RTTI — where the structural relation is
// noisiest and the admissible pair set least like a clean tree.
func TestSparseSweepMatchesDenseSynth(t *testing.T) {
	ran := 0
	for _, c := range bench.SynthGrid() {
		if c.Friendly {
			continue
		}
		img, _, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, workers := range []int{1, 8} {
			sparseVsReference(t, c.Name, img, workers)
		}
		ran++
	}
	if ran < 5 {
		t.Fatalf("only %d adversarial configs exercised, want >= 5", ran)
	}
}
