package slm

import "sync"

// queryScratch bundles the reusable query-side buffers one goroutine
// needs to derive word distributions: a rebindable Querier (the
// allocation-free frozen-trie query kernel), the per-gram
// log-probability row and the per-word log-probability row. A
// queryScratch is not safe for concurrent use; borrow one per goroutine
// with getScratch.
type queryScratch struct {
	q       *Querier
	gramLps []float64
	lps     []float64
}

// logProbWords returns ln Pr(w) under f for every word of t: one LogProb
// per distinct gram into the gram row, then each word's row of gram
// log-probabilities summed left to right from 0 — LogProbSeq's addends
// in LogProbSeq's order, so each result equals f's
// Querier.LogProbSeq(w) bit for bit. t must be interned at f's depth. A
// warm scratch does not allocate; the returned slice is valid until the
// next use of the scratch.
func (s *queryScratch) logProbWords(f *Frozen, t *gramTable) []float64 {
	if s.q == nil {
		s.q = f.NewQuerier()
	} else {
		s.q.Rebind(f)
	}
	s.gramLps = grow(s.gramLps, len(t.grams))
	for g, win := range t.grams {
		last := len(win) - 1
		s.gramLps[g] = s.q.LogProb(win[last], win[:last])
	}
	s.lps = grow(s.lps, len(t.off)-1)
	for w := range s.lps {
		lp := 0.0
		for _, g := range t.rows[t.off[w]:t.off[w+1]] {
			lp += s.gramLps[g]
		}
		s.lps[w] = lp
	}
	return s.lps
}

// grow returns buf resliced to n, reallocated only when too small.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// sharedScratch recycles queryScratch values across goroutines and across
// analyses, so every DistanceCalculator in the process — concurrent or
// sequential — reuses queriers and distribution buffers instead of
// re-allocating them per family. Its contents are garbage-collectible
// under memory pressure (sync.Pool semantics).
var sharedScratch sync.Pool

// getScratch returns a scratch for exclusive use; pair with putScratch.
func getScratch() *queryScratch {
	if s, ok := sharedScratch.Get().(*queryScratch); ok {
		return s
	}
	return &queryScratch{}
}

// putScratch returns a queryScratch to the process-wide pool.
func putScratch(s *queryScratch) { sharedScratch.Put(s) }
