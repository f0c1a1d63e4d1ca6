package slm

// ReferenceModel trains the reference builder on seqs and freezes it, for
// the external tests that compare the pipeline's models against it.
func ReferenceModel(depth, alphabet int, seqs [][]int) *Frozen {
	return refTrain(depth, alphabet, seqs).Freeze()
}

// ReferenceKL is D_KL(A‖B) as refKL derives it, from the per-word
// log-probabilities of A and B over a non-empty word set.
func ReferenceKL(lpsA, lpsB []float64) float64 {
	return klEntries(newDistEntry(lpsA), newDistEntry(lpsB))
}

// GramRow returns a copy of the word log-probabilities c's gram kernel
// derives for m over c's word set.
func GramRow(c *DistanceCalculator, m *Frozen) []float64 {
	s := &queryScratch{}
	lps, _ := s.logProbWords(m, c.grams(m.depth))
	return append([]float64(nil), lps...)
}

// CachedEntryIs reports whether c's cached distribution of m equals, bit
// for bit, the one derived from the word log-probabilities lps. It is
// false when m is not cached.
func CachedEntryIs(c *DistanceCalculator, m *Frozen, lps []float64) bool {
	c.mu.Lock()
	got, ok := c.cache[m]
	c.mu.Unlock()
	return ok && sameEntry(got, newDistEntry(lps))
}

// Words32 converts a test word set to the int32 symbols the distance
// calculator takes.
func Words32(words [][]int) [][]int32 { return words32(words) }

// SameGramTable reports whether newGramTable interns words at depth into
// the same grams, rows and row offsets as the Go-map reference
// (refGramTable).
func SameGramTable(depth int, words [][]int32) bool {
	return sameGrams(newGramTable(depth, words), refGramTable(depth, words))
}

// InternGrams interns the grams of words at depth and returns how many
// distinct grams they hold.
func InternGrams(depth int, words [][]int32) int { return len(newGramTable(depth, words).grams) }
