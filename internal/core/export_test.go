package core

import "repro/internal/hierarchy"

// MultiParents reruns the §5.3 multi-parent choice of r over the given
// distance table and forest.
func MultiParents(r *Result, dist map[[2]uint64]float64, forest *hierarchy.Forest) map[uint64][]uint64 {
	ref := &Result{Structural: r.Structural, Dist: dist, Hierarchy: forest}
	ref.chooseMultiParents()
	return ref.MultiParents
}

// EnumEps is the co-optimal near-tie tolerance the hierarchy stage uses.
const EnumEps = enumEps

// RootWeightFactor scales the virtual-root weight the SLM/KL sweep sets.
const RootWeightFactor = rootWeightFactor
