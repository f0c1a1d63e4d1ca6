package slm

import (
	"math"
	"math/rand"
	"testing"
)

// randomModel trains a reference model on a randomized corpus: random depth,
// alphabet, and training sequences. Roughly half the trials get a small
// alphabet (dense tries, exclusion churn), half a larger one.
func randomModel(rng *rand.Rand) *refModel {
	alpha := 2 + rng.Intn(6)
	if rng.Intn(2) == 0 {
		alpha = 2 + rng.Intn(31)
	}
	m := newRef(rng.Intn(5), alpha)
	for n := rng.Intn(12); n >= 0; n-- {
		seq := make([]int, 1+rng.Intn(12))
		for i := range seq {
			seq[i] = rng.Intn(alpha)
		}
		m.Train(seq)
	}
	return m
}

func randomSeq(rng *rand.Rand, alpha, maxLen int) []int {
	seq := make([]int, rng.Intn(maxLen+1))
	for i := range seq {
		seq[i] = rng.Intn(alpha)
	}
	return seq
}

// seq32 converts a test sequence to the int32 symbols the trainer and
// the distance calculator take.
func seq32(seq []int) []int32 {
	out := make([]int32, len(seq))
	for i, s := range seq {
		out[i] = int32(s)
	}
	return out
}

// words32 converts a test word set like seq32.
func words32(words [][]int) [][]int32 {
	out := make([][]int32, len(words))
	for i, w := range words {
		out[i] = seq32(w)
	}
	return out
}

// sameBits requires exact floating-point equality — the frozen kernel
// must run the reference's arithmetic, not merely approximate it.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: frozen %v (%#x) != reference %v (%#x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestFrozenBitIdenticalLogProb is the central property test of the
// frozen representation: on randomized corpora, LogProb and LogProbSeq
// through a trained frozen model are bit-identical to the map-based
// reference builder, for random symbols and histories (including
// histories longer than the model depth and untrained contexts).
func TestFrozenBitIdenticalLogProb(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		m := randomModel(rng)
		f := build(m)
		if f.depth != m.depth || f.alphabet != m.alphabet || f.trained != m.Trained() {
			t.Fatalf("trial %d: frozen header diverged", trial)
		}
		q := f.NewQuerier()
		for i := 0; i < 20; i++ {
			sym := rng.Intn(m.Alphabet())
			hist := randomSeq(rng, m.Alphabet(), m.Depth()+3)
			sameBits(t, "LogProb", q.LogProb(sym, hist), m.LogProb(sym, hist))
		}
		for i := 0; i < 10; i++ {
			seq := randomSeq(rng, m.Alphabet(), 16)
			sameBits(t, "LogProbSeq", q.LogProbSeq(seq), m.LogProbSeq(seq))
		}
	}
}

// TestFrozenBitIdenticalDistances: word distributions and every metric
// computed over trained frozen models equal the reference builders'
// results bit for bit, both through the reference divergences and
// through a DistanceCalculator.
func TestFrozenBitIdenticalDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		alpha := 2 + rng.Intn(10)
		a, b := newRef(2, alpha), newRef(2, alpha)
		for n := 0; n < 6; n++ {
			a.Train(randomSeq(rng, alpha, 10))
			b.Train(randomSeq(rng, alpha, 10))
		}
		words := make([][]int, 8)
		for i := range words {
			words[i] = randomSeq(rng, alpha, 8)
		}
		fa, fb := build(a), build(b)

		qa, qb := fa.NewQuerier(), fb.NewQuerier()
		da := refWordDist(a, words)
		dfa := refWordDist(qa, words)
		for i := range da {
			sameBits(t, "word distribution", dfa[i], da[i])
		}
		for _, metric := range []Metric{MetricKL, MetricJSDivergence, MetricJSDistance} {
			sameBits(t, metric.String(),
				refDistance(metric, qa, qb, words), refDistance(metric, a, b, words))
			calc := NewDistanceCalculator(metric, words32(words))
			sameBits(t, metric.String()+" calculator",
				calc.Distance(fa, fb), refDistance(metric, a, b, words))
			sameBits(t, metric.String()+" calculator rev",
				calc.Distance(fb, fa), refDistance(metric, b, a, words))
		}
	}
}

// TestFrozenDumpIdentical: a trained frozen model renders the Fig. 8 view
// exactly as the reference builder's trie walk does, including untrained
// models and deep tries.
func TestFrozenDumpIdentical(t *testing.T) {
	name := func(s int) string { return string(rune('a' + s%26)) }
	rng := rand.New(rand.NewSource(3))
	if got, want := build(newRef(2, 4)).Dump(name), newRef(2, 4).Dump(name); got != want {
		t.Fatalf("untrained dump diverged:\n%q\n%q", got, want)
	}
	for trial := 0; trial < 40; trial++ {
		m := randomModel(rng)
		if got, want := build(m).Dump(name), m.Dump(name); got != want {
			t.Fatalf("trial %d: dump diverged:\nfrozen:\n%s\nreference:\n%s", trial, got, want)
		}
	}
}

// TestFrozenQueryAllocs pins the tentpole guarantee: the frozen query
// path — LogProb, LogProbSeq, and a batched LogProbWords into a
// caller-provided buffer — performs zero allocations per operation.
func TestFrozenQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation may allocate; alloc counts are asserted in the non-race run")
	}
	m := newRef(2, 24)
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < 64; n++ {
		m.Train(randomSeq(rng, 24, 7))
	}
	f := build(m)
	q := f.NewQuerier()
	hist := []int{3, 5}
	seq := []int{1, 2, 3, 4, 5, 6, 7}
	words := make([][]int, 32)
	for i := range words {
		words[i] = randomSeq(rng, 24, 7)
	}
	out := make([]float64, len(words))

	if n := testing.AllocsPerRun(100, func() { q.LogProb(4, hist) }); n != 0 {
		t.Errorf("Querier.LogProb allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { q.LogProbSeq(seq) }); n != 0 {
		t.Errorf("Querier.LogProbSeq allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { q.LogProbWords(words, out) }); n != 0 {
		t.Errorf("Querier.LogProbWords allocates %v per op, want 0", n)
	}

	// The memoized distance path: once a calculator's distributions are
	// warm, Distance is a pure reduction over the cached vectors — zero
	// allocations per call (the corpus engine leans on this when sweeping
	// many images through shared calculators).
	m2 := newRef(2, 24)
	for n := 0; n < 64; n++ {
		m2.Train(randomSeq(rng, 24, 7))
	}
	f2 := build(m2)
	calc := NewDistanceCalculator(MetricKL, words32(words))
	calc.Precompute(f)
	calc.Precompute(f2)
	if n := testing.AllocsPerRun(100, func() { calc.Distance(f, f2) }); n != 0 {
		t.Errorf("warm DistanceCalculator.Distance allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { calc.Precompute(f) }); n != 0 {
		t.Errorf("warm DistanceCalculator.Precompute allocates %v per op, want 0", n)
	}
}

// TestQuerierRebind: a querier rebound across models (the pooled corpus
// scratch path) answers bit-identically to a fresh querier per model,
// including when the new alphabet or node count is smaller, equal, or
// larger than the buffers it inherited. The chain kernel's memo of the
// previous model is never read: right after Rebind no chain is current,
// and every later chain query matches the builder.
func TestQuerierRebind(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	models := make([]*refModel, 12)
	for i := range models {
		models[i] = randomModel(rng)
	}
	var q *Querier
	for trial := 0; trial < 60; trial++ {
		m := models[rng.Intn(len(models))]
		f := build(m)
		if q == nil {
			q = f.NewQuerier()
		} else {
			q.Rebind(f)
		}
		for n, c := range q.chains {
			if c.epoch == q.chainEpoch {
				t.Fatalf("trial %d: node %d's chain is current right after Rebind", trial, n)
			}
		}
		if q.built != 0 || len(q.levels) != 0 {
			t.Fatalf("trial %d: %d chains and %d levels survive Rebind", trial, q.built, len(q.levels))
		}
		for i := 0; i < 8; i++ {
			sym := rng.Intn(m.Alphabet() + 1)
			hist := randomSeq(rng, m.Alphabet(), m.Depth()+2)
			sameBits(t, "rebound chain kernel", q.chainLogProb(int32(sym), hist), m.LogProb(sym, hist))
			if sym < m.Alphabet() {
				sameBits(t, "rebound LogProb", q.LogProb(sym, hist), m.LogProb(sym, hist))
			}
		}
	}
}

// TestQuerierRebindAfterWraparound: growing a rebound querier's exclusion
// buffer must not resurrect stamps written before an epoch wraparound.
func TestQuerierRebindAfterWraparound(t *testing.T) {
	small := newRef(1, 4)
	small.Train([]int{0, 1, 2, 3})
	big := newRef(1, 16)
	big.Train([]int{0, 5, 10, 15})
	q := build(big).NewQuerier()
	for i := range q.exclEpoch {
		q.exclEpoch[i] = math.MaxUint32 // poison the wide region pre-wrap
	}
	q.Rebind(build(small))
	q.epoch = math.MaxUint32 - 1 // wrap imminent; wipe covers only len 4
	_ = q.LogProb(0, nil)
	_ = q.LogProb(0, nil) // wraps; exclEpoch[0:4) wiped, epoch restarts
	fb := build(big)
	q.Rebind(fb)
	for sym := 0; sym < 16; sym++ {
		sameBits(t, "post-wrap rebind", q.LogProb(sym, []int{5}), big.LogProb(sym, []int{5}))
	}
}

// TestQuerierEpochWraparound: a querier whose epoch counters wrap must
// wipe its stale stamps instead of treating them as current: exclusion
// stamps, and chain memos from before a wraparound of the chain epoch,
// in the retained region and in one regrown after a shrink.
func TestQuerierEpochWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomModel(rng)
	f := build(m)
	q := f.NewQuerier()
	q.epoch = math.MaxUint32 - 3
	for i := range q.exclEpoch {
		q.exclEpoch[i] = q.epoch // poison: everything "excluded" pre-wrap
	}
	for i := 0; i < 10; i++ {
		sym := rng.Intn(m.Alphabet())
		hist := randomSeq(rng, m.Alphabet(), m.Depth()+2)
		sameBits(t, "post-wrap LogProb", q.LogProb(sym, hist), m.LogProb(sym, hist))
	}

	// Chain memos: poison every entry with the epochs the counter reaches
	// after wrapping, pointing at a bogus tail, then bind a smaller model
	// across the wrap and regrow to the larger one.
	big := newRef(3, 12)
	for n := 0; n < 30; n++ {
		big.Train(randomSeq(rng, 12, 9))
	}
	small := newRef(1, 12)
	small.Train([]int{0, 1, 0, 2})
	fb, fs := build(big), build(small)
	q = fb.NewQuerier()
	for i := range q.chains {
		q.chains[i] = escapeChain{epoch: 1 + uint32(i%2), tail: 1}
	}
	q.chainEpoch = math.MaxUint32
	q.Rebind(fs) // wraps: the wipe covers only the small model's nodes
	if q.chainEpoch != 1 {
		t.Fatalf("chain epoch %d after the wrap, want 1", q.chainEpoch)
	}
	check := func(label string, ref *refModel) {
		t.Helper()
		for i := 0; i < 40; i++ {
			sym := rng.Intn(ref.Alphabet() + 1)
			hist := randomSeq(rng, ref.Alphabet(), ref.Depth()+2)
			sameBits(t, label, q.chainLogProb(int32(sym), hist), ref.LogProb(sym, hist))
		}
	}
	check("post-wrap chain kernel", small)
	q.Rebind(fb) // epoch 2: the regrown region must not read as built
	check("regrown chain kernel", big)
}

// TestFrozenOutOfAlphabetHistory: history symbols outside the alphabet
// cannot match any trained context; both representations fall back to the
// shorter context chain identically.
func TestFrozenOutOfAlphabetHistory(t *testing.T) {
	m := newRef(2, 4)
	m.Train([]int{0, 1, 2, 3, 0, 1})
	f := build(m)
	q := f.NewQuerier()
	for _, hist := range [][]int{{-1}, {99}, {0, -5}, {1, 99, 2}} {
		for sym := 0; sym < 4; sym++ {
			sameBits(t, "out-of-alphabet hist", q.LogProb(sym, hist), m.LogProb(sym, hist))
		}
	}
}

// TestLogProbWordsReusesBuffer: the batched API writes into the provided
// buffer when it has capacity and allocates a fresh one otherwise.
func TestLogProbWordsReusesBuffer(t *testing.T) {
	m := newRef(2, 4)
	m.Train([]int{0, 1, 2, 3})
	words := [][]int{{0, 1}, {2, 3}, {1}}
	buf := make([]float64, 8)
	got := build(m).NewQuerier().LogProbWords(words, buf)
	if len(got) != len(words) || &got[0] != &buf[0] {
		t.Errorf("LogProbWords did not reuse the provided buffer")
	}
	short := m.LogProbWords(words, nil)
	if len(short) != len(words) {
		t.Errorf("LogProbWords(nil) returned %d results, want %d", len(short), len(words))
	}
	for i := range got {
		sameBits(t, "buffer reuse", got[i], short[i])
	}
}
