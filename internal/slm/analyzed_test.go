package slm_test

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/objtrace"
	"repro/internal/slm"
)

// TestAnalyzedModelsMatchReference: every model the pipeline trains for
// the Table 2 images and the synth grid serializes byte for byte like the
// reference builder trained on the same type's tracelets, so the
// pipeline's snapshots and every distance are those of the reference.
func TestAnalyzedModelsMatchReference(t *testing.T) {
	images := map[string]*image.Image{}
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		images[b.Name] = img
	}
	for _, c := range bench.SynthGrid() {
		img, _, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		images[c.Name] = img
	}
	cfg := core.DefaultConfig()
	for name, img := range images {
		res, err := core.Analyze(img, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sym := make(map[objtrace.Event]int, len(res.Alphabet))
		for i, e := range res.Alphabet {
			sym[e] = i
		}
		for _, v := range res.VTables {
			f := res.Frozen[v.Addr]
			if f == nil {
				t.Fatalf("%s: type %#x has no model", name, v.Addr)
			}
			var seqs [][]int
			for _, tl := range res.Tracelets.PerType[v.Addr] {
				seq := make([]int, len(tl))
				for i, e := range tl {
					seq[i] = sym[e]
				}
				seqs = append(seqs, seq)
			}
			want := slm.ReferenceModel(cfg.SLMDepth, len(res.Alphabet), seqs).AppendBinary(nil)
			if !bytes.Equal(f.AppendBinary(nil), want) {
				t.Fatalf("%s: type %#x: trained model differs from the reference", name, v.Addr)
			}
		}
	}
}
