package rock

import (
	"context"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/image"
)

// fuzzDeadline bounds one fuzzed analysis; a run that reaches it returns
// the context's error, which counts as an answer.
const fuzzDeadline = 10 * time.Second

// FuzzAnalyze feeds arbitrary bytes through the whole pipeline — image
// loading, disassembly, tracelet extraction, the structural analysis,
// training, the evidence sweep and the solve. Every input must end in a
// report or an error, never a panic. The seeds are the 19 Table 2
// images, one synthetic image and one patched image, so mutations start
// from inputs that reach every stage.
func FuzzAnalyze(f *testing.F) {
	add := func(img *image.Image) {
		data, err := img.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			f.Fatal(err)
		}
		add(img)
	}
	img, _, err := bench.SynthByName("deep/devirt").Build()
	if err != nil {
		f.Fatal(err)
	}
	add(img)
	patched, _, err := bench.ByName("tinyxml").Build()
	if err != nil {
		f.Fatal(err)
	}
	sites := bench.PatchableFunctions(patched)
	if len(sites) == 0 {
		f.Fatal("tinyxml has no patchable function")
	}
	if err := bench.PatchFunction(patched, sites[len(sites)/2]); err != nil {
		f.Fatal(err)
	}
	add(patched)

	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), fuzzDeadline)
		defer cancel()
		rep, err := AnalyzeContext(ctx, data, Options{Workers: 1})
		if err == nil && rep == nil {
			t.Fatal("AnalyzeContext returned neither a report nor an error")
		}
	})
}
