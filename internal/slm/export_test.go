package slm

// ReferenceModel trains the reference builder on seqs and freezes it, for
// the external tests that compare the pipeline's models against it.
func ReferenceModel(depth, alphabet int, seqs [][]int) *Frozen {
	return refTrain(depth, alphabet, seqs).Freeze()
}
