package slm

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestTrainMatchesReference pins the trainer to the reference builder:
// on randomized corpora and on the edge cases, the trained model
// serializes byte for byte like the reference trie frozen into the flat
// layout, so snapshots and every query are unchanged. One trainer serves
// every case, so its reused buffers are exercised across shapes.
func TestTrainMatchesReference(t *testing.T) {
	var tr Trainer
	check := func(label string, depth, alpha int, seqs [][]int) {
		t.Helper()
		tr.Reset(depth, alpha)
		for _, s := range seqs {
			tr.Add(s)
		}
		f := tr.Build()
		if err := f.validate(); err != nil {
			t.Fatalf("%s: trained model invalid: %v", label, err)
		}
		got := f.AppendBinary(nil)
		want := refTrain(depth, alpha, seqs).Freeze().AppendBinary(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s (depth %d, alphabet %d, %d sequences): trained bytes differ from the reference\ngot  %x\nwant %x",
				label, depth, alpha, len(seqs), got, want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	corpus := func(alpha, n, maxLen int) [][]int {
		seqs := make([][]int, n)
		for i := range seqs {
			seqs[i] = randomSeq(rng, alpha, maxLen)
		}
		return seqs
	}
	check("no sequences", 2, 5, nil)
	check("empty sequences", 2, 5, [][]int{{}, {}, {}})
	check("empty among others", 2, 5, [][]int{{}, {1, 2, 3, 1}, {}, {4}})
	check("depth 0", 0, 6, corpus(6, 12, 9))
	check("negative depth, zero alphabet", -3, 0, [][]int{{0, 0}, {0}})
	check("depth longer than every sequence", 9, 4, corpus(4, 10, 5))
	check("depth 1<<24", 1<<24, 4, corpus(4, 10, 8))
	check("alphabet 1", 2, 1, [][]int{{0, 0, 0}, {0}, {}, {0, 0}})
	repeated := []int{3, 1, 4, 1, 5, 2, 0}
	check("repeated sequences", 2, 6, [][]int{repeated, repeated, repeated, {1, 4}, repeated})
	// Symbols past 255 take more than one radix digit per column.
	check("wide alphabet", 3, 70000, corpus(70000, 30, 10))
	for trial := 0; trial < 1000; trial++ {
		alpha := 1 + rng.Intn(9)
		switch trial % 4 {
		case 1:
			alpha = 1 + rng.Intn(60)
		case 2:
			alpha = 200 + rng.Intn(400)
		}
		check("random", rng.Intn(5), alpha, corpus(alpha, rng.Intn(30), rng.Intn(13)))
	}
}

// buildAllocs is what Build allocates on a warm trainer: the model, its
// node array and one arena holding its four int32 spans.
const buildAllocs = 3

// TestTrainerAllocs: a warm trainer allocates only the model it returns,
// a fixed count per model whatever the number of sequences.
func TestTrainerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation may allocate; alloc counts are asserted in the non-race run")
	}
	seqs := trainCorpus(400)
	var tr Trainer
	train := func(seqs [][]int) {
		tr.Reset(2, trainAlphabet)
		for _, s := range seqs {
			tr.Add(s)
		}
		tr.Build()
	}
	train(seqs) // grow the buffers to the largest corpus
	for _, n := range []int{20, 80, 400} {
		if got := testing.AllocsPerRun(20, func() { train(seqs[:n]) }); got != buildAllocs {
			t.Errorf("%d sequences: warm trainer allocates %v per model, want %d", n, got, buildAllocs)
		}
	}
}
