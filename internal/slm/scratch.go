package slm

import "sync"

// queryScratch bundles the reusable query-side buffers one goroutine
// needs to derive word distributions: a rebindable Querier (the
// allocation-free frozen-trie query kernel) and the intermediate
// log-probability buffer, plus the multi-model state of the blocked batch
// kernel (one querier and one log-probability row per model of the
// current batch). A queryScratch is not safe for concurrent use; borrow
// one per goroutine with getScratch.
type queryScratch struct {
	q   *Querier
	lps []float64

	qs   []*Querier
	rows [][]float64
}

// batchWordBlock is the word-block width of the multi-model batch kernel:
// every model of the batch scores one block of words before the sweep
// advances to the next block, so the block's symbol slices stay cache-hot
// across all models of the batch.
const batchWordBlock = 64

// logProbWordsBatch scores the word set against every frozen model of the
// batch in one blocked pass: words are visited in blocks of
// batchWordBlock, and each block is scored by every model while its
// symbol data is hot, instead of streaming the whole word set per model.
// Row i of the result is bit-identical to ms[i]'s Querier.LogProbWords
// — the kernel only reorders the (model, word) loop; the per-(model,
// word) arithmetic is the unchanged Querier walk. Queriers and rows are
// retained by the scratch, so a warm scratch scores without allocating;
// the rows are valid until its next use.
func (s *queryScratch) logProbWordsBatch(ms []*Frozen, words [][]int) [][]float64 {
	for len(s.qs) < len(ms) {
		s.qs = append(s.qs, nil)
	}
	for len(s.rows) < len(ms) {
		s.rows = append(s.rows, nil)
	}
	for i, f := range ms {
		if s.qs[i] == nil {
			s.qs[i] = f.NewQuerier()
		} else {
			s.qs[i].Rebind(f)
		}
		if cap(s.rows[i]) < len(words) {
			s.rows[i] = make([]float64, len(words))
		}
		s.rows[i] = s.rows[i][:len(words)]
	}
	for lo := 0; lo < len(words); lo += batchWordBlock {
		hi := min(lo+batchWordBlock, len(words))
		for mi := range ms {
			q, row := s.qs[mi], s.rows[mi]
			for wi := lo; wi < hi; wi++ {
				row[wi] = q.LogProbSeq(words[wi])
			}
		}
	}
	return s.rows[:len(ms)]
}

// logProbWords scores every word through the scratch buffers: the pooled
// Querier is reused (or rebound) and the log-probability buffer is
// retained across calls. The returned slice is valid until the next use
// of the scratch.
func (s *queryScratch) logProbWords(f *Frozen, words [][]int) []float64 {
	if s.q == nil {
		s.q = f.NewQuerier()
	} else {
		s.q.Rebind(f)
	}
	s.lps = s.q.LogProbWords(words, s.lps)
	return s.lps
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
