package hierarchy

import (
	"testing"
	"testing/quick"
)

func chainForest(n int) *Forest {
	nodes := make([]uint64, n)
	for i := range nodes {
		nodes[i] = uint64(i + 1)
	}
	f := NewForest(nodes)
	for i := 1; i < n; i++ {
		if err := f.SetParent(uint64(i+1), uint64(i)); err != nil {
			panic(err)
		}
	}
	return f
}

// successors is the per-node oracle for AllSuccessors: the proper
// descendants of t, successors_h(t) of §6.3, by a walk down Children.
func successors(f *Forest, t uint64) map[uint64]bool {
	out := map[uint64]bool{}
	var rec func(u uint64)
	rec = func(u uint64) {
		for _, c := range f.Children(u) {
			if !out[c] {
				out[c] = true
				rec(c)
			}
		}
	}
	rec(t)
	return out
}

func TestForestBasics(t *testing.T) {
	f := chainForest(4)
	if got := f.Roots(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("roots = %v", got)
	}
	if got := f.Children(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("children(1) = %v", got)
	}
	if got := f.Ancestors(4); len(got) != 3 || got[0] != 3 || got[2] != 1 {
		t.Fatalf("ancestors(4) = %v", got)
	}
	succ := successors(f, 2)
	if !succ[3] || !succ[4] || succ[1] || succ[2] {
		t.Fatalf("successors(2) = %v", succ)
	}
}

func TestCycleAndSelfEdgeRejected(t *testing.T) {
	f := chainForest(3)
	if err := f.SetParent(1, 3); err == nil {
		t.Error("cycle accepted")
	}
	if err := f.SetParent(2, 2); err == nil {
		t.Error("self edge accepted")
	}
	if err := f.SetParent(99, 1); err == nil {
		t.Error("unknown node accepted")
	}
}

// TestAllSuccessorsMatchesPerNode: property — the batch computation agrees
// with the per-node successors oracle on random forests.
func TestAllSuccessorsMatchesPerNode(t *testing.T) {
	f := func(parentsRaw []uint8) bool {
		n := len(parentsRaw)
		if n == 0 || n > 30 {
			return true
		}
		nodes := make([]uint64, n)
		for i := range nodes {
			nodes[i] = uint64(i + 1)
		}
		fo := NewForest(nodes)
		for i := 1; i < n; i++ {
			// Parent from earlier nodes only: guaranteed acyclic.
			p := uint64(int(parentsRaw[i])%i + 1)
			if err := fo.SetParent(uint64(i+1), p); err != nil {
				return false
			}
		}
		all := fo.AllSuccessors()
		for _, u := range nodes {
			per := successors(fo, u)
			if len(per) != len(all[u]) {
				return false
			}
			for s := range per {
				if !all[u][s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestApplicationDistance(t *testing.T) {
	gt := chainForest(4) // 1 -> 2 -> 3 -> 4
	h := chainForest(4)  // identical
	types := []uint64{1, 2, 3, 4}
	d := ApplicationDistance(gt.AllSuccessors(), h.AllSuccessors(), types)
	if d.AvgMissing != 0 || d.AvgAdded != 0 {
		t.Fatalf("identical forests: %v/%v", d.AvgMissing, d.AvgAdded)
	}
	// Flat reconstruction: everything a root.
	flat := NewForest(types)
	d = ApplicationDistance(gt.AllSuccessors(), flat.AllSuccessors(), types)
	// GT successor pairs: 1:{2,3,4}, 2:{3,4}, 3:{4} = 6 missing total.
	if d.AvgMissing != 6.0/4 || d.AvgAdded != 0 {
		t.Fatalf("flat: %v/%v", d.AvgMissing, d.AvgAdded)
	}
	if d.PerType[1].Missing != 3 {
		t.Fatalf("per-type missing = %v", d.PerType[1])
	}
}

func TestPossibleParentSuccessors(t *testing.T) {
	// 1 and 2 are both possible parents of 3; 3 possible parent of 4.
	poss := map[uint64][]uint64{3: {1, 2}, 4: {3}}
	types := []uint64{1, 2, 3, 4}
	succ := PossibleParentSuccessors(poss, types)
	if !succ[1][3] || !succ[2][3] {
		t.Error("3 must be a successor of both possible parents")
	}
	if !succ[1][4] || !succ[2][4] || !succ[3][4] {
		t.Error("4 must be reachable transitively")
	}
	if succ[4][3] || succ[3][1] {
		t.Error("reverse directions must be empty")
	}
}
