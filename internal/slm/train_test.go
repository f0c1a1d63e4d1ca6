package slm

import (
	"bytes"
	"math"
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
			tr.AddN(seq32(s), 1)
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

// TestTrainAddNMatchesRepeatedAdds pins weighted training: a sequence
// added once with weight n trains, byte for byte, the model n unweighted
// adds of it train, and weight 0 adds nothing. The cases mix weighted
// and unweighted adds of random corpora, empty sequences, depth 0 and a
// 70,000-symbol alphabet; one pair of trainers serves every case, so
// their reused buffers are exercised across shapes.
func TestTrainAddNMatchesRepeatedAdds(t *testing.T) {
	var weighted, repeated Trainer
	type add struct {
		seq []int32
		n   int
	}
	check := func(label string, depth, alpha int, adds []add) {
		t.Helper()
		weighted.Reset(depth, alpha)
		repeated.Reset(depth, alpha)
		var expanded [][]int
		for _, a := range adds {
			weighted.AddN(a.seq, a.n)
			for range a.n {
				repeated.AddN(a.seq, 1)
				seq := make([]int, len(a.seq))
				for i, s := range a.seq {
					seq[i] = int(s)
				}
				expanded = append(expanded, seq)
			}
		}
		f := weighted.Build()
		if err := f.validate(); err != nil {
			t.Fatalf("%s: weighted model invalid: %v", label, err)
		}
		got := f.AppendBinary(nil)
		if want := repeated.Build().AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("%s (depth %d, alphabet %d, %d adds): weighted bytes differ from repeated adds\ngot  %x\nwant %x",
				label, depth, alpha, len(adds), got, want)
		}
		if want := refTrain(depth, alpha, expanded).Freeze().AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("%s: weighted bytes differ from the reference", label)
		}
	}

	rng := rand.New(rand.NewSource(2))
	// corpus draws n adds over [0, alpha); a weight is 1 (an unweighted
	// add) about a third of the time and 0 now and then.
	corpus := func(alpha, n, maxLen int) []add {
		adds := make([]add, n)
		for i := range adds {
			adds[i] = add{seq32(randomSeq(rng, alpha, maxLen)), rng.Intn(6)}
			if rng.Intn(3) == 0 {
				adds[i].n = 1
			}
		}
		return adds
	}
	check("no adds", 2, 5, nil)
	check("empty sequences", 2, 5, []add{{nil, 3}, {[]int32{}, 1}, {nil, 4}})
	check("weight 0 only", 2, 5, []add{{[]int32{1, 2, 3}, 0}, {nil, 0}})
	check("weight 0 of the longest", 3, 5, []add{{[]int32{1, 2}, 2}, {[]int32{4, 3, 2, 1, 0}, 0}})
	check("depth 0", 0, 6, corpus(6, 12, 9))
	check("repeated sequence", 2, 6, []add{{[]int32{3, 1, 4, 1, 5, 2, 0}, 7}, {[]int32{1, 4}, 1}, {[]int32{3, 1, 4, 1, 5, 2, 0}, 2}})
	check("wide alphabet", 3, 70000, func() []add {
		adds := make([]add, 30)
		for i := range adds {
			adds[i] = add{seq32(randomSeq(rng, 70000, 10)), 1 + rng.Intn(4)}
		}
		return adds
	}())
	for trial := 0; trial < 500; trial++ {
		alpha := 1 + rng.Intn(9)
		if trial%3 == 1 {
			alpha = 200 + rng.Intn(400)
		}
		check("random", rng.Intn(5), alpha, corpus(alpha, rng.Intn(30), rng.Intn(13)))
	}
}

// TestTrainAddNRejectsOverflow: a negative weight, or one whose weighted
// positions would overflow the model's int32 counts, panics instead of
// training a wrapped model.
func TestTrainAddNRejectsOverflow(t *testing.T) {
	for _, tc := range []struct {
		label string
		add   func(tr *Trainer)
	}{
		{"negative weight", func(tr *Trainer) { tr.AddN([]int32{1}, -1) }},
		{"weight past int32", func(tr *Trainer) { tr.AddN(nil, math.MaxInt32+1) }},
		{"weighted positions past int32", func(tr *Trainer) { tr.AddN([]int32{1, 2}, math.MaxInt32/2+1) }},
		{"positions summed past int32", func(tr *Trainer) {
			tr.AddN([]int32{1}, math.MaxInt32-1)
			tr.AddN([]int32{2, 3}, 1)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AddN did not panic", tc.label)
				}
			}()
			var tr Trainer
			tr.Reset(2, 5)
			tc.add(&tr)
		}()
	}
}

// buildAllocs is what Build allocates on a warm trainer: the model, its
// node array and one arena holding its four int32 spans.
const buildAllocs = 3

// TestTrainerAllocs: a warm trainer allocates only the model it returns,
// a fixed count per model whatever the number of sequences, unweighted
// or weighted.
func TestTrainerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation may allocate; alloc counts are asserted in the non-race run")
	}
	seqs := words32(trainCorpus(400))
	var tr Trainer
	train := func(seqs [][]int32, weighted bool) {
		tr.Reset(2, trainAlphabet)
		for i, s := range seqs {
			n := 1
			if weighted {
				n += i % 5
			}
			tr.AddN(s, n)
		}
		tr.Build()
	}
	train(seqs, true) // grow the buffers to the largest corpus
	for _, weighted := range []bool{false, true} {
		for _, n := range []int{20, 80, 400} {
			if got := testing.AllocsPerRun(20, func() { train(seqs[:n], weighted) }); got != buildAllocs {
				t.Errorf("%d sequences (weighted %v): warm trainer allocates %v per model, want %d", n, weighted, got, buildAllocs)
			}
		}
	}
}
