package slm

import (
	"fmt"
	"math/rand"
	"testing"
)

// trainAlphabet is the alphabet of the training benchmark's corpora.
const trainAlphabet = 60

// trainCorpus returns n deterministic sequences of length 7 over
// trainAlphabet: the tracelet window's length, and an alphabet the size
// of a deep synthetic image's.
func trainCorpus(n int) [][]int {
	rng := rand.New(rand.NewSource(int64(n)))
	seqs := make([][]int, n)
	for i := range seqs {
		seqs[i] = make([]int, 7)
		for j := range seqs[i] {
			seqs[i][j] = rng.Intn(trainAlphabet)
		}
	}
	return seqs
}

// trainSink keeps BenchmarkTrain's models live.
var trainSink *Frozen

// BenchmarkTrain measures training one depth-2 model: the reference
// map-trie builder plus its freezing, against the trainer that sorts
// fixed-width rows straight into the frozen arena (warm, as the pipeline
// reuses it from one type to the next).
func BenchmarkTrain(b *testing.B) {
	for _, n := range []int{20, 80, 400} {
		seqs := trainCorpus(n)
		b.Run(fmt.Sprintf("reference/seqs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				trainSink = refTrain(2, trainAlphabet, seqs).Freeze()
			}
		})
		b.Run(fmt.Sprintf("arena/seqs=%d", n), func(b *testing.B) {
			var tr Trainer
			b.ReportAllocs()
			for range b.N {
				tr.Reset(2, trainAlphabet)
				for _, s := range seqs {
					tr.Add(s)
				}
				trainSink = tr.Build()
			}
		})
	}
}

// queryFixture trains two deterministic reference models on overlapping
// corpora (the shape of one family's model pair) and returns them with a
// word set — the workload of the query benchmarks below.
func queryFixture() (a, b *refModel, words [][]int) {
	const alpha = 24
	a, b = newRef(2, alpha), newRef(2, alpha)
	words = make([][]int, 256)
	for i := range words {
		w := make([]int, 7)
		for j := range w {
			w[j] = (i*31 + j*17 + i*i%13) % alpha
		}
		words[i] = w
		if i%2 == 0 {
			a.Train(w)
		}
		if i%3 != 0 {
			b.Train(w)
		}
	}
	return a, b, words
}

// BenchmarkLogProbSeq measures the per-word PPM-C query kernel: the
// reference map trie against the frozen flat trie driven through a
// reusable Querier. The frozen path must report 0 allocs/op.
func BenchmarkLogProbSeq(b *testing.B) {
	m, _, words := queryFixture()
	q := build(m).NewQuerier()
	b.Run("Reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.LogProbSeq(words[i%len(words)])
		}
	})
	b.Run("Frozen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.LogProbSeq(words[i%len(words)])
		}
	})
}

// BenchmarkWordDist measures deriving one model's normalized distribution
// over a family word set — the unit the DistanceCalculator memoizes, and
// the dominant cost of the behavioral analysis: the reference map trie
// and the frozen trie query word by word, the gram row queries each
// distinct gram once through a warm scratch (the calculator's kernel;
// the word set's gram table is interned once per family, outside the
// loop).
func BenchmarkWordDist(b *testing.B) {
	m, _, words := queryFixture()
	f := build(m)
	b.Run("Reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refWordDist(m, words)
		}
	})
	b.Run("Frozen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refWordDist(f.NewQuerier(), words)
		}
	})
	b.Run("Gram", func(b *testing.B) {
		tab := newGramTable(f.depth, words)
		s := &queryScratch{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			distFromLogProbs(s.logProbWords(f, tab))
		}
	})
}
