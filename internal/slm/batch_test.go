package slm

import (
	"math/rand"
	"testing"
)

// batchFleet trains k frozen models over a shared alphabet plus a word
// set sampled from all of them.
func batchFleet(t *testing.T, k int) ([]*Frozen, [][]int) {
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

// TestBatchKernelBitIdentical pins the batch kernel's contract: row i of
// logProbWordsBatch equals ms[i]'s Querier.LogProbWords exactly — the
// blocked loop reorders model×word visits but never the per-pair
// arithmetic — for a cold scratch, a warm rebound scratch, and a
// shrunken batch.
func TestBatchKernelBitIdentical(t *testing.T) {
	fleet, words := batchFleet(t, 9)
	s := &queryScratch{}
	check := func(label string, ms []*Frozen) {
		t.Helper()
		rows := s.logProbWordsBatch(ms, words)
		if len(rows) != len(ms) {
			t.Fatalf("%s: got %d rows, want %d", label, len(rows), len(ms))
		}
		for i, f := range ms {
			want := f.NewQuerier().LogProbWords(words, nil)
			for w := range want {
				if rows[i][w] != want[w] {
					t.Fatalf("%s: model %d word %d: batch %v, direct %v", label, i, w, rows[i][w], want[w])
				}
			}
		}
	}
	check("cold", fleet)
	check("warm", fleet)
	// A smaller follow-up batch must rebind the retained queriers, not
	// reuse stale bindings.
	check("shrunk", fleet[3:6])
}

// TestPrecomputeBatchMatchesPrecompute pins batch precompute against the
// single-model path: distances over batch-derived distributions are
// bit-identical, including with models already cached.
func TestPrecomputeBatchMatchesPrecompute(t *testing.T) {
	ms, words := batchFleet(t, 7)
	for _, metric := range []Metric{MetricKL, MetricJSDivergence, MetricJSDistance} {
		single := NewDistanceCalculator(metric, words)
		batch := NewDistanceCalculator(metric, words)
		batch.Reserve(len(ms))
		for _, m := range ms {
			single.Precompute(m)
		}
		batch.PrecomputeBatch(ms[:3])
		batch.PrecomputeBatch(ms) // second call: first three are cache hits
		for _, a := range ms {
			for _, b := range ms {
				if a == b {
					continue
				}
				if got, want := batch.Distance(a, b), single.Distance(a, b); got != want {
					t.Fatalf("%v: batch distance %v, single %v", metric, got, want)
				}
			}
		}
	}
}

// TestBatchKernelZeroAlloc guards the memoized hot path: a warm scratch
// scores a whole batch without allocating, and a fully-cached
// PrecomputeBatch costs nothing.
func TestBatchKernelZeroAlloc(t *testing.T) {
	fleet, words := batchFleet(t, 8)
	s := &queryScratch{}
	s.logProbWordsBatch(fleet, words) // warm the queriers and rows
	if n := testing.AllocsPerRun(100, func() { s.logProbWordsBatch(fleet, words) }); n != 0 {
		t.Errorf("warm logProbWordsBatch allocates %v per pass, want 0", n)
	}
	calc := NewDistanceCalculator(MetricKL, words)
	calc.PrecomputeBatch(fleet)
	if n := testing.AllocsPerRun(100, func() { calc.PrecomputeBatch(fleet) }); n != 0 {
		t.Errorf("cached PrecomputeBatch allocates %v per call, want 0", n)
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
	ms, words := batchFleet(t, 2)
	if got := NewDistanceCalculator(MetricKL, nil).PairBound(ms); got != 0 {
		t.Errorf("empty word set: PairBound %v, want 0", got)
	}
	if got := NewDistanceCalculator(MetricKL, words).PairBound(ms[:1]); got != 0 {
		t.Errorf("single model: PairBound %v, want 0", got)
	}
}
