package slm

import (
	"sync"
	"testing"
)

// trainedPair returns two small reference models over a shared alphabet
// plus a word set drawn from both behaviors.
func trainedPair() (*refModel, *refModel, [][]int) {
	a := newRef(2, 6)
	b := newRef(2, 6)
	for i := 0; i < 8; i++ {
		a.Train([]int{0, 1, 2, 0, 1, 2})
		a.Train([]int{0, 1, 0, 1})
		b.Train([]int{0, 1, 2, 3, 4, 5})
		b.Train([]int{3, 4, 5})
	}
	words := [][]int{
		{0, 1, 2},
		{0, 1},
		{3, 4, 5},
		{0, 1, 2, 3},
		{5},
	}
	return a, b, words
}

// TestCalculatorMatchesDistance pins the calculator's contract: for every
// metric and both argument orders it returns exactly the value of the
// reference divergence over the reference builders (bit-identical — the
// pipeline's serial/parallel determinism guarantee depends on it).
func TestCalculatorMatchesDistance(t *testing.T) {
	a, b, words := trainedPair()
	fa, fb := build(a), build(b)
	for _, metric := range []Metric{MetricKL, MetricJSDivergence, MetricJSDistance} {
		c := NewDistanceCalculator(metric, words32(words))
		for i := 0; i < 3; i++ { // repeated calls must hit the cache, same value
			if got, want := c.Distance(fa, fb), refDistance(metric, a, b, words); got != want {
				t.Errorf("%v: calculator a→b = %v, reference = %v", metric, got, want)
			}
			if got, want := c.Distance(fb, fa), refDistance(metric, b, a, words); got != want {
				t.Errorf("%v: calculator b→a = %v, reference = %v", metric, got, want)
			}
		}
	}
}

// TestCalculatorEmptyWords: an empty word set measures distance 0.
func TestCalculatorEmptyWords(t *testing.T) {
	a, b, _ := trainedPair()
	c := NewDistanceCalculator(MetricKL, nil)
	if got := c.Distance(build(a), build(b)); got != 0 {
		t.Errorf("empty word set: got %v, want 0", got)
	}
}

// TestCalculatorConcurrent hammers one calculator from many goroutines
// (precompute races included); every observed value must equal the serial
// reference. Run under -race this also proves the cache is data-race free.
func TestCalculatorConcurrent(t *testing.T) {
	ra, rb, words := trainedPair()
	want := refDistance(MetricKL, ra, rb, words)
	wantRev := refDistance(MetricKL, rb, ra, words)
	a, b := build(ra), build(rb)
	c := NewDistanceCalculator(MetricKL, words32(words))
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					c.Precompute(a)
					if got := c.Distance(a, b); got != want {
						errs <- "a→b diverged"
						return
					}
				} else {
					c.Precompute(b)
					if got := c.Distance(b, a); got != wantRev {
						errs <- "b→a diverged"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
