package arborescence

import (
	"fmt"
	"testing"
)

// contractedGraph builds a graph that forces Edmonds' algorithm through
// repeated cycle contractions: k rings whose internal edges are cheap (so
// each ring's minimum in-edges form a cycle) joined to the root by
// expensive entry edges, plus cross edges to keep the contracted levels
// non-trivial.
func contractedGraph(k, ringLen int) (n int, edges []Edge) {
	n = 1 + k*ringLen
	for r := 0; r < k; r++ {
		base := 1 + r*ringLen
		for i := 0; i < ringLen; i++ {
			from := base + i
			to := base + (i+1)%ringLen
			edges = append(edges, Edge{From: from, To: to, W: 1})
		}
		// Expensive entry from the root into one ring node.
		edges = append(edges, Edge{From: 0, To: base, W: 10})
		// A cross edge from the previous ring, slightly cheaper than the
		// root entry, so contraction decisions interact across rings.
		if r > 0 {
			edges = append(edges, Edge{From: base - 1, To: base, W: 5})
		}
	}
	return n, edges
}

// BenchmarkSolveContracted measures the contraction/expansion path of the
// Edmonds solver on cycle-heavy graphs — the workload the slice-backed
// edge set replaced the old map[int]bool + sort.Ints expansion for.
func BenchmarkSolveContracted(b *testing.B) {
	for _, shape := range []struct{ rings, ringLen int }{
		{2, 4}, {8, 8}, {16, 16},
	} {
		n, edges := contractedGraph(shape.rings, shape.ringLen)
		b.Run(fmt.Sprintf("rings=%d,len=%d", shape.rings, shape.ringLen), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := MinArborescence(n, 0, edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// plateauGraph builds a family graph of the shape that exhausts
// EnumerateMin's state budget in the Table 2 suite (Analyzer, Smoothing),
// n >= 15 nodes with node 0 the virtual root. Every type hangs off the
// root by a dominating edge (Heuristic 4.1). Node 1, the family's top
// type, has cheap in-edges from below as well, so the lower bound (the
// sum of per-node minima) sits almost a whole root edge under the optimum
// and prunes almost nothing. Nodes 2–7 are 1's children, tied with each
// other at one weight; nodes 8–13 form a zero-weight 6-clique below 1;
// the rest form a chain under 1 whose last links are near ties. Most
// candidate parents close a cycle, and the cheap assignments tried first
// multiply long before the bound cuts them.
func plateauGraph(n int) []Edge {
	const root = 300
	var edges []Edge
	add := func(u, v int, w float64) { edges = append(edges, Edge{From: u, To: v, W: w}) }
	children := func(v int) bool { return v >= 2 && v <= 7 }
	clique := func(v int) bool { return v >= 8 && v <= 13 }
	for v := 1; v < n; v++ {
		add(0, v, root)
		for u := 1; u < n; u++ {
			switch {
			case u == v:
			case v == 1 && clique(u):
				add(u, v, 10.6)
			case v == 1:
				add(u, v, 11.8)
			case children(v) && u == 1:
				add(u, v, 0.63)
			case children(v) && children(u):
				add(u, v, 8.67)
			case clique(v) && clique(u):
				add(u, v, 0)
			case clique(v) && u == 1:
				add(u, v, 4.54)
			case v >= 14 && u == 1:
				add(u, v, 0.8+0.35*float64(v-14))
			case v >= 14 && u >= 14 && v-u <= 2 && v >= n-3:
				add(u, v, 0.02+0.01*float64(v-u))
			case v >= 14 && u >= 14 && u < v:
				add(u, v, 0.3*float64(v-u))
			case v >= 14 && u < 14:
				add(u, v, 9.6+float64(u%3))
			case u >= 14 && u > v:
				add(u, v, 14.2)
			}
		}
	}
	return edges
}

// BenchmarkEnumeratePlateau measures the co-optimal search on plateau
// graphs that use up the whole state budget, reporting the states each
// search visits.
func BenchmarkEnumeratePlateau(b *testing.B) {
	for _, n := range []int{20, 26} {
		edges := plateauGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			states := 0
			for i := 0; i < b.N; i++ {
				_, _, _, s, err := EnumerateMinStates(n, 0, edges, 1e-9, 64)
				if err != nil {
					b.Fatal(err)
				}
				states += s
			}
			b.ReportMetric(float64(states)/float64(b.N), "states/op")
		})
	}
}
