package core

import (
	"context"
	"testing"

	"repro/internal/compiler"
	"repro/internal/synth"
)

// deepResult analyzes one deep synthetic image, serially: the first
// generator seed whose program has 100–120 classes in three families up
// to five levels deep, the shape of the benchmark's deep workloads.
func deepResult(b *testing.B) *Result {
	b.Helper()
	for gen := int64(1); ; gen++ {
		p := synth.DefaultParams(gen)
		p.Families, p.MaxDepth, p.MaxBranch, p.UseReps = 3, 5, 4, 4
		prog, _ := synth.Generate(p)
		if k := len(prog.Classes); k < 100 || k > 120 {
			continue
		}
		img, err := compiler.Compile(prog, compiler.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Workers = 1
		res, err := Analyze(img.Strip(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
}

// BenchmarkAlphabetTrain times the alphabet and train stages on one deep
// synthetic image, serially: interning the alphabet while encoding every
// tracelet into the table and deduplicating each type's word set, then
// training every type's model on its weighted distinct words.
func BenchmarkAlphabetTrain(b *testing.B) {
	res := deepResult(b)
	cfg := DefaultConfig()
	reset := func() { res.Alphabet, res.enc, res.words = nil, nil, nil }
	b.Run("alphabet", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			reset()
			res.internAlphabet()
		}
	})
	b.Run("train", func(b *testing.B) {
		reset()
		res.internAlphabet()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if err := res.trainModels(context.Background(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
