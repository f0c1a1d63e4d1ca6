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

// logProbWords returns ln Pr(w) under f for every word of t, and the
// number of escape chains it built: one trie walk per distinct history
// and one query per distinct gram into the gram row, each escape chain
// built once and shared by every gram that reaches it, then each word's
// row of gram log-probabilities summed left to right from 0 — the
// addends of a per-position sum of queries, in its order, so each result
// equals that sum (the tests' Querier.LogProbSeq) bit for bit. t must be
// interned at f's depth. A warm scratch does not allocate; the returned
// slice is valid until the next use of the scratch.
func (s *queryScratch) logProbWords(f *Frozen, t *gramTable) ([]float64, int) {
	if s.q == nil {
		s.q = f.NewQuerier()
	} else {
		s.q.Rebind(f)
	}
	s.gramLps = resize(s.gramLps, len(t.grams))
	for h, hist := range t.hists {
		descend(s.q, hist)
		for _, g := range t.byHist[t.histOff[h]:t.histOff[h+1]] {
			win := t.grams[g]
			s.gramLps[g] = s.q.logProbSym(win[len(win)-1])
		}
	}
	s.lps = resize(s.lps, len(t.off)-1)
	for w := range s.lps {
		lp := 0.0
		for _, g := range t.rows[t.off[w]:t.off[w+1]] {
			lp += s.gramLps[g]
		}
		s.lps[w] = lp
	}
	return s.lps, s.q.built
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
