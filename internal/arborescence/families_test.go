package arborescence_test

import (
	"math/big"
	"sync"
	"testing"

	"repro/internal/arborescence"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/image"
)

// familyGraph is one family graph captured from the pipeline.
type familyGraph struct {
	image       string
	n           int
	edges       []arborescence.Edge
	eps         float64
	evidenceSet string
}

// TestEnumerateFamilyGraphsMatchReference replays every family graph the
// pipeline solves — the 19 Table 2 images and the 30-config synth grid,
// each under the default evidence and under slm,subtype fusion — through
// the independent dual-certificate check and the forced-edge enumerator.
// The synth grid is skipped under -short.
func TestEnumerateFamilyGraphsMatchReference(t *testing.T) {
	var imgs []*image.Image
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatalf("build %s: %v", b.Name, err)
		}
		imgs = append(imgs, img)
	}
	if !testing.Short() {
		for _, c := range bench.SynthGrid() {
			img, _, err := c.Build()
			if err != nil {
				t.Fatalf("build %s: %v", c.Name, err)
			}
			imgs = append(imgs, img)
		}
	}

	var (
		mu     sync.Mutex
		graphs []familyGraph
		cur    familyGraph
	)
	core.SetFamilyHook(func(types []uint64, edges []arborescence.Edge, eps float64) {
		mu.Lock()
		g := cur
		g.n, g.eps = len(types)+1, eps
		g.edges = append([]arborescence.Edge(nil), edges...)
		graphs = append(graphs, g)
		mu.Unlock()
	})
	defer core.SetFamilyHook(nil)
	for _, fused := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.Subtype = fused
		for _, img := range imgs {
			mu.Lock()
			cur = familyGraph{image: img.Name, evidenceSet: "default"}
			if fused {
				cur.evidenceSet = "slm,subtype"
			}
			mu.Unlock()
			if _, err := core.Analyze(img, cfg); err != nil {
				t.Fatalf("%s: %v", img.Name, err)
			}
		}
	}
	core.SetFamilyHook(nil)

	plateaus := 0
	for _, g := range graphs {
		count, err := arborescence.CheckCoOptimal(g.n, 0, g.edges, g.eps, false)
		if err != nil {
			t.Fatalf("%s (%s evidence), %d-node family: %v", g.image, g.evidenceSet, g.n, err)
		}
		// The forced-edge enumerator costs about 13 Edmonds solves per
		// co-optimal arborescence; the two 7,776-arborescence plateaus
		// run only in the full suite.
		if count.Cmp(big.NewInt(1000)) > 0 {
			plateaus++
		}
		if count.Cmp(big.NewInt(1000)) <= 0 || !testing.Short() && !arborescence.RaceEnabled() {
			if _, err := arborescence.CheckCoOptimal(g.n, 0, g.edges, g.eps, true); err != nil {
				t.Fatalf("%s (%s evidence), %d-node family: %v", g.image, g.evidenceSet, g.n, err)
			}
		}
	}
	if len(graphs) == 0 {
		t.Fatal("the pipeline enumerated no family graph")
	}
	t.Logf("%d family graphs match the oracles, %d of them plateaus of over 1,000 co-optimal arborescences", len(graphs), plateaus)
}
