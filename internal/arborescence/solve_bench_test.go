package arborescence

import (
	"fmt"
	"math/big"
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

// plateauGraph builds a family graph of the shape of Table 2's two
// 7,776-arborescence families (Analyzer, Smoothing), n >= 15 nodes with
// node 0 the virtual root. Every type hangs off the
// root by a dominating edge (Heuristic 4.1). Node 1, the family's top
// type, has cheap in-edges from below as well, so the lower bound (the
// sum of per-node minima) sits almost a whole root edge under the optimum
// and prunes almost nothing. Nodes 2–7 are 1's children, tied with each
// other at one weight; nodes 8–13 form a zero-weight 6-clique below 1;
// the rest form a chain under 1 whose last links are near ties. The
// clique is the plateau: it is entered once, at any of its six nodes, and
// spanned inside by any of 6^4 arborescences. A fixed-order
// branch-and-bound over this graph spent 400,000 states without finding
// one of them.
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

// BenchmarkCoOptimalPlateau measures the exact co-optimal structure on
// the six-variant plateaus (n=20 and 26, and a 64-node graph of the same
// shape): the Edmonds solve with its certificate, the structure, the
// count and the vote. It reports the count, the vote rounds (restrictions
// made plus the final round that found no leader) and allocs per op.
func BenchmarkCoOptimalPlateau(b *testing.B) {
	for _, n := range []int{20, 26, 64} {
		edges := plateauGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var count, rounds float64
			for i := 0; i < b.N; i++ {
				sol, err := Solve(n, 0, edges)
				if err != nil {
					b.Fatal(err)
				}
				co := sol.CoOptimal(edges, 1e-9)
				c, _ := new(big.Float).SetInt(co.Count()).Float64()
				kept := co.Vote()
				count += c
				rounds++
				for v := range kept.Tight {
					if len(kept.Tight[v]) < len(co.Tight[v]) {
						rounds++
					}
				}
			}
			b.ReportMetric(count/float64(b.N), "count/op")
			b.ReportMetric(rounds/float64(b.N), "rounds/op")
		})
	}
}
