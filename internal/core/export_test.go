package core

import "repro/internal/hierarchy"

// FamilyWords returns the word set the distance sweep measures family
// fam of r over.
func FamilyWords(r *Result, fam []uint64) [][]int {
	r.buildWordsFor(fam)
	return r.familyWords(fam)
}

// MultiParents reruns the §5.3 multi-parent choice of r over the given
// distance table and forest.
func MultiParents(r *Result, dist map[[2]uint64]float64, forest *hierarchy.Forest) map[uint64][]uint64 {
	ref := &Result{Structural: r.Structural, Dist: dist, Hierarchy: forest}
	ref.chooseMultiParents()
	return ref.MultiParents
}
