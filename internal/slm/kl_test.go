package slm

import (
	"math"
	"math/rand"
	"testing"
)

// perTermKL is the KL kernel as it was before the dot-product form: one
// Log per element, log(p/q') with q' the distribution floored at 1e-300.
// The dot-product kernel must stay within klTol of it.
func perTermKL(pa, pb []float64) float64 {
	d := 0.0
	for i := range pa {
		if pa[i] <= 0 {
			continue
		}
		q := pb[i]
		if q <= 0 {
			q = 1e-300
		}
		d += pa[i] * math.Log(pa[i]/q)
	}
	return d
}

// klTol bounds |klEntries − perTermKL| relative to the two operands the
// dot-product form subtracts, |selfEnt(P)| and |Σ p·ln q'|: the forms
// differ only in rounding, and the subtraction's error scales with its
// operands, not with the (possibly tiny) difference.
const klTol = 1e-12

// TestKLKernelMatchesPerTerm compares the dot-product kernel with the
// per-term formula over random model fleets and word sets (models with
// unseen words give distributions with zeros, the 1e-300 floor), and
// checks it is never negative and exactly 0 on identical distributions.
func TestKLKernelMatchesPerTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		alpha := 2 + rng.Intn(20)
		words := make([][]int, 1+rng.Intn(120))
		for i := range words {
			words[i] = randomSeq(rng, alpha, 9)
		}
		var ms []*Frozen
		for k := 0; k < 4; k++ {
			m := newRef(rng.Intn(4), alpha)
			for n := rng.Intn(30); n >= 0; n-- {
				m.Train(randomSeq(rng, alpha, 9))
			}
			ms = append(ms, build(m))
		}
		c := NewDistanceCalculator(MetricKL, words32(words))
		for _, a := range ms {
			for _, b := range ms {
				ea, eb := c.distribution(a), c.distribution(b)
				got, want := klEntries(ea, eb), perTermKL(ea.ps, eb.ps)
				if got < 0 {
					t.Fatalf("trial %d: negative divergence %v", trial, got)
				}
				if a == b && got != 0 {
					t.Fatalf("trial %d: D_KL(P||P) = %v, want exactly 0", trial, got)
				}
				scale := math.Abs(ea.selfEnt) + math.Abs(ea.selfEnt-want)
				if math.Abs(got-want) > klTol*scale {
					t.Fatalf("trial %d: dot-product %v, per-term %v: differ by more than %g x %v", trial, got, want, klTol, scale)
				}
			}
		}
	}
}

// TestKLKernelClamp: for P ≈ Q the subtraction can round a few ulps
// below zero; the kernel must clamp those to 0 (arborescence rejects
// negative weights), and two distinct but equal distributions must give
// exactly 0 through both the calculator and the reference KL.
func TestKLKernelClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	clamped := 0
	for trial := 0; trial < 2000; trial++ {
		lp := make([]float64, 2+rng.Intn(50))
		for i := range lp {
			lp[i] = -20 * rng.Float64()
		}
		lq := append([]float64(nil), lp...)
		lq[rng.Intn(len(lq))] += 1e-15
		a, b := newDistEntry(lp), newDistEntry(lq)
		cross := 0.0
		for i, p := range a.ps {
			if p > 0 {
				cross += p * b.logQ[i]
			}
		}
		if a.selfEnt-cross < 0 {
			clamped++
		}
		if d := klEntries(a, b); d < 0 {
			t.Fatalf("trial %d: negative divergence %v", trial, d)
		}
	}
	if clamped == 0 {
		t.Fatal("no near-identical pair rounded below zero; the clamp is untested")
	}

	m1, m2 := newRef(2, 6), newRef(2, 6)
	for _, w := range [][]int{{0, 1, 2}, {3, 4, 5, 0}, {1, 1, 2}} {
		m1.Train(w)
		m2.Train(w)
	}
	words := [][]int{{0, 1}, {5, 5, 5}, {2, 3, 4}, {1}}
	f1, f2 := build(m1), build(m2)
	if d := refKL(f1.NewQuerier(), f2.NewQuerier(), words); d != 0 {
		t.Errorf("KL of equal models = %v, want exactly 0", d)
	}
	if d := NewDistanceCalculator(MetricKL, words32(words)).Distance(f1, f2); d != 0 {
		t.Errorf("calculator KL of equal models = %v, want exactly 0", d)
	}
}

// TestDistFromLogProbsUniformFallback: a vector whose every
// log-probability is −Inf (every probability zero) normalizes to the
// uniform distribution, not NaN.
func TestDistFromLogProbsUniformFallback(t *testing.T) {
	inf := math.Inf(-1)
	for _, lps := range [][]float64{{inf}, {inf, inf}, {inf, inf, inf, inf}} {
		ps := distFromLogProbs(lps)
		for i, p := range ps {
			if p != 1/float64(len(lps)) {
				t.Errorf("distFromLogProbs(%v)[%d] = %v, want uniform %v", lps, i, p, 1/float64(len(lps)))
			}
		}
	}
	if ps := distFromLogProbs(nil); len(ps) != 0 {
		t.Errorf("empty vector normalized to %v", ps)
	}
}
