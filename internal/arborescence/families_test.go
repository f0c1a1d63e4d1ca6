package arborescence_test

import (
	"sync"
	"testing"

	"repro/internal/arborescence"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/evidence"
	"repro/internal/image"
)

// familyGraph is one enumerator input captured from the pipeline.
type familyGraph struct {
	image       string
	n, root     int
	edges       []arborescence.Edge
	eps         float64
	limit       int
	evidenceSet string
}

// TestEnumerateFamilyGraphsMatchReference replays every family graph the
// pipeline hands the enumerator — the 19 Table 2 images and the 30-config
// synth grid, each under the default evidence and under slm,subtype
// fusion — through the recursive reference at the full state budget.
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
	arborescence.SetEnumerateHook(func(n, root int, edges []arborescence.Edge, eps float64, limit int) {
		mu.Lock()
		g := cur
		g.n, g.root, g.eps, g.limit = n, root, eps, limit
		g.edges = append([]arborescence.Edge(nil), edges...)
		graphs = append(graphs, g)
		mu.Unlock()
	})
	defer arborescence.SetEnumerateHook(nil)
	for _, ev := range [][]string{nil, {evidence.NameSLM, evidence.NameSubtype}} {
		cfg := core.DefaultConfig()
		cfg.Evidence = ev
		for _, img := range imgs {
			mu.Lock()
			cur = familyGraph{image: img.Name, evidenceSet: "default"}
			if ev != nil {
				cur.evidenceSet = "slm,subtype"
			}
			mu.Unlock()
			if _, err := core.Analyze(img, cfg); err != nil {
				t.Fatalf("%s: %v", img.Name, err)
			}
		}
	}
	arborescence.SetEnumerateHook(nil)

	exhausted := 0
	for _, g := range graphs {
		steps, err := arborescence.CheckEnumerate(g.n, g.root, g.edges, g.eps, g.limit, arborescence.MaxEnumSteps)
		if err != nil {
			t.Fatalf("%s (%s evidence), %d-node family: %v", g.image, g.evidenceSet, g.n, err)
		}
		if steps > arborescence.MaxEnumSteps {
			exhausted++
		}
	}
	if len(graphs) == 0 {
		t.Fatal("the pipeline enumerated no family graph")
	}
	t.Logf("%d family graphs match the reference, %d of them exhaust the state budget", len(graphs), exhausted)
}
