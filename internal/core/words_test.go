package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/image"
)

// TestWordSetsMatchFmtKeys: the per-type word sets and the family word
// unions, deduplicated by fixed-width symbol keys, equal the sets the
// formatted-string keys produced (each tracelet keyed by its event
// notation, each encoded word by fmt.Sprint), in the same order, on the
// Table 2 images and one synthetic image per generator shape.
func TestWordSetsMatchFmtKeys(t *testing.T) {
	imgs := map[string]*image.Image{}
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		imgs[b.Name] = img
	}
	for _, name := range []string{"random/opt", "deep/devirt", "wide/comdat", "diamond/partial", "split/friendly", "interleaved/opt"} {
		img, _, err := bench.SynthByName(name).Build()
		if err != nil {
			t.Fatal(err)
		}
		imgs[name] = img
	}
	for name, img := range imgs {
		res, err := Analyze(img, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		idx := res.symIndex()
		for _, v := range res.VTables {
			seen := map[string]bool{}
			var want [][]int
			for _, tl := range res.Tracelets.PerType[v.Addr] {
				if k := tl.String(); !seen[k] {
					seen[k] = true
					want = append(want, appendEncoded(nil, idx, tl))
				}
			}
			if !reflect.DeepEqual(res.words[v.Addr], want) {
				t.Fatalf("%s: type %#x: word set differs from the formatted-key reference", name, v.Addr)
			}
		}
		for _, fam := range res.Structural.Families {
			seen := map[string]bool{}
			var want [][]int
			for _, t := range fam {
				for _, w := range res.words[t] {
					if k := fmt.Sprint(w); !seen[k] {
						seen[k] = true
						want = append(want, w)
					}
				}
			}
			if got := res.familyWords(fam); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: family %#x: word union differs from the formatted-key reference", name, fam)
			}
		}
	}
}
