package core_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/arborescence"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/evidence/subtype"
	"repro/internal/slm"
)

// familyGraphs analyzes every Table 2 image under cfg and calls check
// with each multi-type family's admissible (parent, child) pairs, in the
// solve's layout, and the edges the solve received: one virtual-root edge
// per member in family order, then one edge per pair.
func familyGraphs(t *testing.T, cfg core.Config, check func(label string, res *core.Result, fam []uint64, pairs [][2]uint64, edges []arborescence.Edge)) {
	t.Helper()
	var mu sync.Mutex
	graphs := map[uint64][]arborescence.Edge{}
	core.SetFamilyHook(func(types []uint64, edges []arborescence.Edge, _ float64) {
		mu.Lock()
		graphs[types[0]] = append([]arborescence.Edge(nil), edges...)
		mu.Unlock()
	})
	defer core.SetFamilyHook(nil)
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		clear(graphs)
		res, err := core.Analyze(img, cfg)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, fam := range res.Structural.Families {
			if len(fam) == 1 {
				continue
			}
			var pairs [][2]uint64
			for _, c := range fam {
				for _, p := range res.Structural.PossibleParents[c] {
					pairs = append(pairs, [2]uint64{p, c})
				}
			}
			edges := graphs[fam[0]]
			if len(edges) != len(fam)+len(pairs) {
				t.Fatalf("%s: family %v: solve saw %d edges, want %d", b.Name, fam, len(edges), len(fam)+len(pairs))
			}
			check(b.Name, res, fam, pairs, edges)
		}
	}
}

// slmReference scores pairs with the paper's SLM/KL divergence directly,
// one Distance call per pair over the family's word set, and derives the
// virtual-root weight from PairBound (Heuristic 4.1).
func slmReference(res *core.Result, cfg core.Config, fam []uint64, pairs [][2]uint64) ([]float64, float64) {
	calc := slm.NewDistanceCalculator(cfg.Metric, res.FamilyWords(fam))
	edge := make([]float64, len(pairs))
	for k, pc := range pairs {
		edge[k] = calc.Distance(res.Frozen[pc[0]], res.Frozen[pc[1]])
	}
	models := make([]*slm.Frozen, len(fam))
	for i, t := range fam {
		models[i] = res.Frozen[t]
	}
	return edge, calc.PairBound(models)*core.RootWeightFactor + 1
}

// TestFusePassthrough pins the default configuration's solve input: every
// edge weight is the SLM/KL score, bit for bit, with nothing added, and
// Dist records exactly those scores.
func TestFusePassthrough(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	familyGraphs(t, cfg, func(label string, res *core.Result, fam []uint64, pairs [][2]uint64, edges []arborescence.Edge) {
		edge, root := slmReference(res, cfg, fam, pairs)
		for i := range fam {
			if math.Float64bits(edges[i].W) != math.Float64bits(root) {
				t.Errorf("%s: family %v: root edge %v, want the SLM root %v", label, fam, edges[i].W, root)
			}
		}
		for k, pc := range pairs {
			w := edges[len(fam)+k].W
			if math.Float64bits(w) != math.Float64bits(edge[k]) || math.Float64bits(res.Dist[pc]) != math.Float64bits(edge[k]) {
				t.Errorf("%s: pair %x: solve weight %v, Dist %v, want the SLM score %v", label, pc, w, res.Dist[pc], edge[k])
			}
		}
	})
}

// TestFuseWeightedSum pins the fused configuration's solve input: every
// edge weight is slm + 5·subtype, summed in that order, the root likewise,
// and the fused root still dominates every fused edge (Heuristic 4.1).
func TestFuseWeightedSum(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	cfg.Subtype = true
	familyGraphs(t, cfg, func(label string, res *core.Result, fam []uint64, pairs [][2]uint64, edges []arborescence.Edge) {
		sc, err := subtype.New(context.Background(), subtype.Image{
			VTables:     res.VTables,
			Purecall:    res.Structural.Purecall,
			Structs:     res.Tracelets.Structs,
			InstallerOf: res.Structural.InstallerOf,
			FnVTables:   res.Tracelets.FnVTables,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		slmEdge, slmRoot := slmReference(res, cfg, fam, pairs)
		subEdge, subRoot := sc.Score(pairs)
		root := slmRoot + 5*subRoot
		for i := range fam {
			if math.Float64bits(edges[i].W) != math.Float64bits(root) {
				t.Errorf("%s: family %v: root edge %v, want %v", label, fam, edges[i].W, root)
			}
		}
		for k, pc := range pairs {
			w := edges[len(fam)+k].W
			if want := slmEdge[k] + 5*subEdge[k]; math.Float64bits(w) != math.Float64bits(want) {
				t.Errorf("%s: pair %x: solve weight %v, want slm %v + 5·subtype %v", label, pc, w, slmEdge[k], subEdge[k])
			}
			if w > root {
				t.Errorf("%s: pair %x: fused edge %v above the fused root %v", label, pc, w, root)
			}
		}
	})
}
