package slm

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// prob returns Pr(sym | hist) through a fresh Querier.
func prob(f *Frozen, sym int, hist []int) float64 {
	return math.Exp(f.NewQuerier().LogProb(sym, hist))
}

func TestEmptyModelUniform(t *testing.T) {
	m := build(newRef(2, 4))
	for s := 0; s < 4; s++ {
		if p := prob(m, s, nil); math.Abs(p-0.25) > 1e-12 {
			t.Fatalf("untrained model Prob=%v, want uniform 0.25", p)
		}
	}
}

func TestTrainingCountsAndEscape(t *testing.T) {
	// Train on "aa" and "ab" (a=0, b=1). Per the §3.1 example: a is the
	// only first symbol; after context a, a and b each appeared once.
	m := newRef(2, 3)
	m.Train([]int{0, 0})
	m.Train([]int{0, 1})
	f := build(m)
	// Order-0: a appeared 3 times, b once, c never (2 distinct symbols);
	// PPM-C: P(a) = 3/(4+2) = 1/2.
	if p := prob(f, 0, nil); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P(a) = %v, want 1/2", p)
	}
	// After context a: counts a:1 b:1 -> P(a|a) = 1/(2+2) = 0.25.
	if p := prob(f, 0, []int{0}); math.Abs(p-0.25) > 1e-12 {
		t.Errorf("P(a|a) = %v, want 0.25", p)
	}
	// Unseen symbol c after a: escape (2/4); with a and b excluded, c is
	// the only remaining symbol, so P(c|a) = 1/2 exactly — and the
	// conditional distribution sums to one.
	if pc := prob(f, 2, []int{0}); math.Abs(pc-0.5) > 1e-12 {
		t.Errorf("P(c|a) = %v, want 1/2", pc)
	}
}

// TestProbabilitiesSumToOne: for any trained model and any context, the
// next-symbol distribution must sum to 1 (a property of correct PPM
// smoothing/backoff bookkeeping).
func TestProbabilitiesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		alpha := 2 + rng.Intn(6)
		m := newRef(1+rng.Intn(3), alpha)
		for s := 0; s < 5; s++ {
			seq := make([]int, 3+rng.Intn(10))
			for i := range seq {
				seq[i] = rng.Intn(alpha)
			}
			m.Train(seq)
		}
		f := build(m)
		ctx := make([]int, rng.Intn(4))
		for i := range ctx {
			ctx[i] = rng.Intn(alpha)
		}
		sum := 0.0
		for s := 0; s < alpha; s++ {
			sum += prob(f, s, ctx)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: sum of next-symbol probabilities = %v", trial, sum)
		}
	}
}

// TestTrainedSequenceMoreProbable: a model must assign higher probability
// to its training sequence than an untrained uniform model does.
func TestTrainedSequenceMoreProbable(t *testing.T) {
	seq := []int{0, 1, 0, 1, 0, 1}
	m := newRef(2, 4)
	m.Train(seq)
	uniform := newRef(2, 4)
	if build(m).NewQuerier().LogProbSeq(seq) <= build(uniform).NewQuerier().LogProbSeq(seq) {
		t.Fatalf("training did not increase sequence probability")
	}
}

func TestKLProperties(t *testing.T) {
	a := newRef(2, 6)
	b := newRef(2, 6)
	for i := 0; i < 20; i++ {
		a.Train([]int{0, 1, 2, 0, 1, 2})
		b.Train([]int{0, 1, 2, 0, 1, 2})
	}
	b.Train([]int{3, 4, 5, 3, 4, 5})
	words := [][]int{{0, 1, 2}, {3, 4, 5}, {0, 1, 2, 0, 1, 2}}
	fa, fb := build(a), build(b)
	calc := NewDistanceCalculator(MetricKL, words32(words))
	if d := calc.Distance(fa, fa); math.Abs(d) > 1e-9 {
		t.Errorf("KL(a||a) = %v, want 0", d)
	}
	dab := calc.Distance(fa, fb)
	dba := calc.Distance(fb, fa)
	if dab < 0 || dba < 0 {
		t.Errorf("normalized KL must be non-negative: %v %v", dab, dba)
	}
	// b has behaviors a lacks, so encoding b's behaviors with a's model is
	// costlier than the reverse — the asymmetry the paper exploits.
	if !(dba > dab) {
		t.Errorf("expected KL(b||a)=%v > KL(a||b)=%v", dba, dab)
	}
}

func TestJSDivergenceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := newRef(2, 5)
	b := newRef(2, 5)
	var words [][]int
	for i := 0; i < 10; i++ {
		w := make([]int, 4)
		for j := range w {
			w[j] = rng.Intn(5)
		}
		words = append(words, w)
		if i%2 == 0 {
			a.Train(w)
		} else {
			b.Train(w)
		}
	}
	fa, fb := build(a), build(b)
	js := NewDistanceCalculator(MetricJSDivergence, words32(words))
	dab := js.Distance(fa, fb)
	dba := js.Distance(fb, fa)
	if math.Abs(dab-dba) > 1e-9 {
		t.Errorf("JS not symmetric: %v vs %v", dab, dba)
	}
	if dab < 0 || dab > math.Log(2)+1e-9 {
		t.Errorf("JS divergence out of [0, ln 2]: %v", dab)
	}
	if d := NewDistanceCalculator(MetricJSDistance, words32(words)).Distance(fa, fb); math.Abs(d-math.Sqrt(dab)) > 1e-12 {
		t.Errorf("JSDistance != sqrt(JSDivergence)")
	}
}

// TestQuickLogProbFinite: property — log-probabilities of arbitrary
// sequences over the alphabet are finite and non-positive.
func TestQuickLogProbFinite(t *testing.T) {
	m := newRef(3, 8)
	m.Train([]int{0, 1, 2, 3, 4, 5, 6, 7})
	m.Train([]int{7, 6, 5, 4, 3, 2, 1, 0})
	q := build(m).NewQuerier()
	f := func(raw []uint8) bool {
		seq := make([]int, len(raw))
		for i, r := range raw {
			seq[i] = int(r % 8)
		}
		lp := q.LogProbSeq(seq)
		return !math.IsNaN(lp) && !math.IsInf(lp, 0) && lp <= 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDumpShowsEscape(t *testing.T) {
	m := newRef(2, 3)
	m.Train([]int{0, 1, 0, 1})
	out := build(m).Dump(func(s int) string { return string(rune('a' + s)) })
	if !strings.Contains(out, "escape=") || !strings.Contains(out, "context [a]") {
		t.Errorf("dump missing expected content:\n%s", out)
	}
}

func TestMetricString(t *testing.T) {
	if MetricKL.String() != "DKL" || MetricJSDivergence.String() != "JS-divergence" || MetricJSDistance.String() != "JS-distance" {
		t.Error("metric names wrong")
	}
}
