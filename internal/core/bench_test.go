package core

import (
	"context"
	"testing"

	"repro/internal/compiler"
	"repro/internal/image"
	"repro/internal/slm"
	"repro/internal/synth"
)

// deepImages builds the first k rockperf-shaped deep programs: the
// generator seeds whose program has 100–120 classes in three families up
// to five levels deep, the shape of the benchmark's deep workloads.
func deepImages(tb testing.TB, k int) []*image.Image {
	tb.Helper()
	var imgs []*image.Image
	for gen := int64(1); len(imgs) < k; gen++ {
		p := synth.DefaultParams(gen)
		p.Families, p.MaxDepth, p.MaxBranch, p.UseReps = 3, 5, 4, 4
		prog, _ := synth.Generate(p)
		if n := len(prog.Classes); n < 100 || n > 120 {
			continue
		}
		img, err := compiler.Compile(prog, compiler.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		imgs = append(imgs, img.Strip())
	}
	return imgs
}

// deepResult analyzes the first deep program, serially.
func deepResult(b *testing.B) *Result {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 1
	res, err := Analyze(deepImages(b, 1)[0], cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
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

// BenchmarkWordSets times deduplicating every type's word set (buildWords)
// and unioning each family's (familyWords) on one deep synthetic image,
// from the encoded tracelet table.
func BenchmarkWordSets(b *testing.B) {
	res := deepResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		res.words = nil
		res.buildWords()
		for _, fam := range res.Structural.Families {
			res.familyWords(fam)
		}
	}
}

// BenchmarkFamilyDerivations times deriving every model's word
// distribution over its family's word set on one deep synthetic image,
// serially: the SLM/KL sweep's precompute, which the pair reductions then
// only read. Each iteration gets fresh calculators whose gram tables are
// interned outside the timer, so it times the derivations alone.
func BenchmarkFamilyDerivations(b *testing.B) {
	res := deepResult(b)
	cfg := DefaultConfig()
	type family struct {
		words  [][]int32
		models []*slm.Frozen
	}
	var fams []family
	for _, fam := range res.Structural.Families {
		if len(fam) == 1 {
			continue // analyzeFamily derives nothing for a singleton
		}
		f := family{words: res.FamilyWords(fam)}
		for _, t := range fam {
			f.models = append(f.models, res.Frozen[t])
		}
		fams = append(fams, f)
	}
	calcs := make([]*slm.DistanceCalculator, len(fams))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		for i, f := range fams {
			calcs[i] = slm.NewDistanceCalculator(cfg.Metric, f.words)
			calcs[i].Reserve(f.models)
		}
		b.StartTimer()
		for i, f := range fams {
			for _, m := range f.models {
				calcs[i].Precompute(m)
			}
		}
	}
}
