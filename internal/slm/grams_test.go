package slm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// trainedFleet trains k frozen models over a shared alphabet plus a word
// set sampled from all of them.
func trainedFleet(t *testing.T, k int) ([]*Frozen, [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	fleet := make([]*Frozen, k)
	for i := range fleet {
		m := newRef(2, 16)
		for n := 0; n < 24; n++ {
			m.Train(randomSeq(rng, 16, 7))
		}
		fleet[i] = build(m)
	}
	words := make([][]int, 100)
	for i := range words {
		words[i] = randomSeq(rng, 16, 7)
	}
	return fleet, words
}

// trainRandom trains one model of the given depth on random sequences
// over [0, alpha).
func trainRandom(rng *rand.Rand, depth, alpha int) *Frozen {
	var tr Trainer
	tr.Reset(depth, alpha)
	for n := rng.Intn(30); n > 0; n-- {
		tr.Add(randomSeq(rng, alpha, 8))
	}
	return tr.Build()
}

// gramWords returns a random word set over [0, alpha) with the gram
// kernel's edge cases mixed in: the empty word, 1-symbol words, symbols
// outside the alphabet (negative and too large) and verbatim duplicates.
func gramWords(rng *rand.Rand, alpha int) [][]int {
	words := [][]int{{}, {0}, {alpha - 1}, {-1}, {alpha + 3}, {2, -1, 2, 2}, {alpha, 0, 1, alpha}}
	for n := 40 + rng.Intn(40); n > 0; n-- {
		words = append(words, randomSeq(rng, alpha, 9))
	}
	for n := 5; n > 0; n-- {
		words = append(words, words[rng.Intn(len(words))])
	}
	rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	return words
}

// sameEntry reports whether two distribution entries agree bit for bit.
func sameEntry(got, want *distEntry) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got.ps) != len(want.ps) || !same(got.selfEnt, want.selfEnt) || !same(got.logMin, want.logMin) {
		return false
	}
	for i := range want.ps {
		if !same(got.ps[i], want.ps[i]) || !same(got.logQ[i], want.logQ[i]) {
			return false
		}
	}
	return true
}

// TestGramKernelBitIdentical is the gram kernel's contract: on random
// trained models and word sets, every word's log-probability summed from
// the gram row equals Querier.LogProbWords bit for bit, and so does the
// distribution the calculator caches. It covers depths 0–3, families
// mixing two depths (each depth gets its own table), empty and 1-symbol
// words, duplicate words and symbols outside the alphabet, with one
// scratch rebound across models of differing depth and alphabet.
func TestGramKernelBitIdentical(t *testing.T) {
	s := &queryScratch{}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		alpha := 1 + rng.Intn(12)
		words := gramWords(rng, alpha)
		depths := []int{int(seed % 4)}
		if seed%3 == 0 {
			depths = append(depths, (depths[0]+1+int(seed/3)%3)%4)
		}
		ms := make([]*Frozen, 2+rng.Intn(4))
		for i := range ms {
			ms[i] = trainRandom(rng, depths[i%len(depths)], alpha)
		}
		bus := obs.NewBus()
		c := NewDistanceCalculator(MetricKL, words)
		c.SetObserver(bus)
		if seed%2 == 0 {
			c.Reserve(ms) // odd seeds intern lazily, on first derivation
		}
		for _, m := range ms {
			want := m.NewQuerier().LogProbWords(words, nil)
			got := s.logProbWords(m, c.grams(m.depth))
			for w := range want {
				sameBits(t, "word log-probability", got[w], want[w])
			}
			c.Precompute(m)
			if !sameEntry(c.cache[m], newDistEntry(want)) {
				t.Fatalf("seed %d: cached distribution differs from the per-word kernel's", seed)
			}
		}
		positions := 0
		for _, w := range words {
			positions += len(w)
		}
		distinct := map[int]bool{}
		for _, d := range depths {
			distinct[d] = true
		}
		if len(c.tables) != len(distinct) {
			t.Fatalf("seed %d: %d gram tables for depths %v", seed, len(c.tables), depths)
		}
		grams := int64(0)
		for _, tab := range c.tables {
			if len(tab.rows) != positions || len(tab.off) != len(words)+1 {
				t.Fatalf("seed %d depth %d: %d rows over %d words, want %d over %d",
					seed, tab.depth, len(tab.rows), len(tab.off)-1, positions, len(words))
			}
			if len(tab.grams) > positions {
				t.Fatalf("seed %d depth %d: %d grams for %d positions", seed, tab.depth, len(tab.grams), positions)
			}
			grams += int64(len(tab.grams))
		}
		rep := bus.Report()
		if got, want := rep.Counters["dist_grams"], grams; got != want {
			t.Errorf("seed %d: dist_grams %d, want %d", seed, got, want)
		}
		if got, want := rep.Counters["dist_positions"], int64(positions*len(distinct)); got != want {
			t.Errorf("seed %d: dist_positions %d, want %d", seed, got, want)
		}
	}
}

// TestGramTableSharesGrams pins the interning itself: windows with the
// same symbols share a gram whatever word holds them, and a shorter
// history at a word's start is a different gram from a full one.
func TestGramTableSharesGrams(t *testing.T) {
	words := [][]int{{1, 2, 3}, {1, 2, 3}, {2, 3}, {0, 2, 3}}
	tab := newGramTable(2, words)
	// Grams: [1] [1 2] [1 2 3] [2] [2 3] [0] [0 2] [0 2 3].
	if len(tab.grams) != 8 {
		t.Fatalf("%d grams, want 8: %v", len(tab.grams), tab.grams)
	}
	want := [][]int32{{0, 1, 2}, {0, 1, 2}, {3, 4}, {5, 6, 7}}
	for w, row := range want {
		got := tab.rows[tab.off[w]:tab.off[w+1]]
		if len(got) != len(row) {
			t.Fatalf("word %d: row %v, want %v", w, got, row)
		}
		for i := range row {
			if got[i] != row[i] {
				t.Fatalf("word %d: row %v, want %v", w, got, row)
			}
		}
	}
	// At depth 0 every gram is its symbol alone.
	if n := len(newGramTable(0, words).grams); n != 4 {
		t.Errorf("depth 0: %d grams, want 4", n)
	}
}

// entrySink keeps the allocation test's entries live.
var entrySink *distEntry

// TestGramKernelZeroAlloc guards the memoized hot path: a warm scratch
// derives a distribution with no allocation beyond the new distEntry, a
// cached Precompute costs nothing, and neither does a warm PairBound.
func TestGramKernelZeroAlloc(t *testing.T) {
	fleet, words := trainedFleet(t, 8)
	calc := NewDistanceCalculator(MetricKL, words)
	calc.Reserve(fleet)
	tab := calc.grams(fleet[0].depth)
	s := &queryScratch{}
	for _, m := range fleet {
		s.logProbWords(m, tab) // warm the querier and both rows
	}
	lps := append([]float64(nil), s.lps...)
	entryAllocs := testing.AllocsPerRun(100, func() { entrySink = newDistEntry(lps) })
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		entrySink = newDistEntry(s.logProbWords(fleet[i%len(fleet)], tab))
		i++
	}); n != entryAllocs {
		t.Errorf("warm derivation allocates %v per model, want %v (the distEntry alone)", n, entryAllocs)
	}
	for _, m := range fleet {
		calc.Precompute(m)
	}
	if n := testing.AllocsPerRun(100, func() { calc.Precompute(fleet[3]) }); n != 0 {
		t.Errorf("cached Precompute allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { calc.PairBound(fleet) }); n != 0 {
		t.Errorf("warm PairBound allocates %v per call, want 0", n)
	}
}

// TestPairBoundDominatesMax is the property the sparse sweep's root
// weight rests on: for every metric, PairBound is at least the largest
// pairwise distance among the models — so a root edge scaled from the
// bound stays costlier than any admissible edge, exactly as one scaled
// from the dense maximum (Heuristic 4.1).
func TestPairBoundDominatesMax(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(5)
		fleet := make([]*Frozen, k)
		for i := range fleet {
			m := newRef(1+rng.Intn(3), 12)
			for n := 0; n < 4+rng.Intn(40); n++ {
				m.Train(randomSeq(rng, 12, 9))
			}
			fleet[i] = build(m)
		}
		words := make([][]int, 1+rng.Intn(60))
		for i := range words {
			words[i] = randomSeq(rng, 12, 9)
		}
		for _, metric := range []Metric{MetricKL, MetricJSDivergence, MetricJSDistance} {
			calc := NewDistanceCalculator(metric, words)
			maxD := 0.0
			for _, a := range fleet {
				for _, b := range fleet {
					if a == b {
						continue
					}
					if d := calc.Distance(a, b); d > maxD {
						maxD = d
					}
				}
			}
			bound := calc.PairBound(fleet)
			if bound < maxD {
				t.Errorf("seed %d %v: PairBound %v < max pairwise distance %v", seed, metric, bound, maxD)
			}
			if again := calc.PairBound(fleet); again != bound {
				t.Errorf("seed %d %v: PairBound not deterministic: %v then %v", seed, metric, bound, again)
			}
		}
	}
}

// TestPairBoundDegenerate pins the empty cases.
func TestPairBoundDegenerate(t *testing.T) {
	ms, words := trainedFleet(t, 2)
	if got := NewDistanceCalculator(MetricKL, nil).PairBound(ms); got != 0 {
		t.Errorf("empty word set: PairBound %v, want 0", got)
	}
	if got := NewDistanceCalculator(MetricKL, words).PairBound(ms[:1]); got != 0 {
		t.Errorf("single model: PairBound %v, want 0", got)
	}
}
