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
// weight from the exact dense maximum (Heuristic 4.1), and enumerates the
// co-optimal arborescences over the admissible edges, then majority-votes
// them. It returns the full distance table, the per-family arborescence
// sets and truncation flags, and the forest built from the first
// surviving arborescence of each family.
func reference(t *testing.T, res *core.Result, cfg core.Config) (map[[2]uint64]float64, [][]map[uint64]uint64, []bool, *hierarchy.Forest) {
	t.Helper()
	dist := map[[2]uint64]float64{}
	arbSets := make([][]map[uint64]uint64, len(res.Structural.Families))
	truncs := make([]bool, len(res.Structural.Families))
	var all []uint64
	for _, v := range res.VTables {
		all = append(all, v.Addr)
	}
	forest := hierarchy.NewForest(all)
	for fi, fam := range res.Structural.Families {
		if len(fam) == 1 {
			arbSets[fi] = []map[uint64]uint64{{}}
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
		arbs, _, truncated, err := arborescence.EnumerateMin(len(fam)+1, 0, edges, cfg.EnumEps, cfg.EnumLimit)
		if err != nil {
			t.Fatalf("family %v: %v", fam, err)
		}
		truncs[fi] = truncated
		for _, a := range arborescence.MajorityVote(arbs) {
			pm := map[uint64]uint64{}
			for i, t := range fam {
				if p := a[i+1]; p > 0 {
					pm[t] = fam[p-1]
				}
			}
			arbSets[fi] = append(arbSets[fi], pm)
		}
		for c, p := range arbSets[fi][0] {
			if err := forest.SetParent(c, p); err != nil {
				t.Fatalf("family %v: %v", fam, err)
			}
		}
	}
	return dist, arbSets, truncs, forest
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
	dist, arbSets, truncs, forest := reference(t, res, cfg)
	if !reflect.DeepEqual(res.Hierarchy, forest) {
		t.Errorf("%s: sparse and reference hierarchies differ", label)
	}
	if !reflect.DeepEqual(res.MultiParents, core.MultiParents(res, dist, forest)) {
		t.Errorf("%s: sparse and reference multi-parent choices differ", label)
	}
	if len(res.Families) != len(arbSets) {
		t.Fatalf("%s: %d sparse families, %d reference", label, len(res.Families), len(arbSets))
	}
	for i, fr := range res.Families {
		if !reflect.DeepEqual(fr.Types, res.Structural.Families[i]) ||
			!reflect.DeepEqual(fr.Arbs, arbSets[i]) || fr.Truncated != truncs[i] {
			t.Errorf("%s: family %d arborescences differ", label, i)
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
