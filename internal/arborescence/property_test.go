package arborescence

import (
	"math"
	"math/rand"
	"testing"
)

// randomDigraph generates a random weighted digraph on n nodes with at
// most one edge per ordered pair (so a parent vector identifies a unique
// edge set and its weight is well-defined).
func randomDigraph(rng *rand.Rand, n int) []Edge {
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Float64() < 0.35 {
				continue
			}
			// Coarse weights provoke ties, exercising the co-optimal
			// machinery; fine weights exercise strict optima.
			w := float64(rng.Intn(8))
			if rng.Intn(2) == 0 {
				w += rng.Float64()
			}
			edges = append(edges, Edge{From: u, To: v, W: w})
		}
	}
	return edges
}

// TestMinArborescenceRandomProperties drives the Edmonds solver over
// random digraphs (n ≤ 6) and asserts, for every instance where a spanning
// arborescence exists:
//   - the returned parent vector is spanning (every non-root has a parent,
//     the root has none) and uses only existing edges;
//   - it is acyclic and rooted: every node's parent chain reaches the root;
//   - the returned weight equals the sum of the chosen edges;
//   - the weight is never heavier than brute-force enumeration's optimum
//     (and never lighter — it must be exactly optimal).
//
// Solver and brute force must also agree on *whether* an arborescence
// exists at all.
func TestMinArborescenceRandomProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	instances := 0
	for iter := 0; iter < 500; iter++ {
		n := 2 + rng.Intn(5) // 2..6
		root := rng.Intn(n)
		edges := randomDigraph(rng, n)

		parents, w, err := MinArborescence(n, root, edges)
		bruteW, bruteOK := BruteForceMin(n, root, edges)
		if err != nil {
			if bruteOK {
				t.Fatalf("iter %d: solver failed (%v) but brute force found weight %v\nedges: %v", iter, err, bruteW, edges)
			}
			continue
		}
		if !bruteOK {
			t.Fatalf("iter %d: solver returned weight %v but brute force found no arborescence\nedges: %v", iter, w, edges)
		}
		instances++

		// Index the (unique) edge per ordered pair.
		weightOf := map[[2]int]float64{}
		for _, e := range edges {
			weightOf[[2]int{e.From, e.To}] = e.W
		}

		// Spanning over existing edges.
		if parents[root] != -1 {
			t.Fatalf("iter %d: root %d has parent %d", iter, root, parents[root])
		}
		sum := 0.0
		for v := 0; v < n; v++ {
			if v == root {
				continue
			}
			p := parents[v]
			if p < 0 {
				t.Fatalf("iter %d: node %d has no parent (not spanning)", iter, v)
			}
			ew, ok := weightOf[[2]int{p, v}]
			if !ok {
				t.Fatalf("iter %d: chosen edge %d->%d does not exist", iter, p, v)
			}
			sum += ew
		}

		// Acyclic and rooted: every parent chain reaches root within n hops.
		for v := 0; v < n; v++ {
			u, hops := v, 0
			for u != root {
				u = parents[u]
				hops++
				if u < 0 || hops > n {
					t.Fatalf("iter %d: parent chain of %d does not reach root %d (parents=%v)", iter, v, root, parents)
				}
			}
		}

		const eps = 1e-9
		if math.Abs(sum-w) > eps {
			t.Fatalf("iter %d: reported weight %v != sum of chosen edges %v", iter, w, sum)
		}
		if w > bruteW+eps {
			t.Fatalf("iter %d: solver weight %v heavier than brute-force optimum %v\nedges: %v", iter, w, bruteW, edges)
		}
		if w < bruteW-eps {
			t.Fatalf("iter %d: solver weight %v impossibly lighter than brute-force optimum %v", iter, w, bruteW)
		}
	}
	if instances < 100 {
		t.Fatalf("only %d solvable instances generated; generator too sparse to be meaningful", instances)
	}
}

// TestEnumerateMinRandomProperties extends the property check to the
// co-optimal stream: every streamed arborescence must satisfy the same
// structural invariants, weigh within eps of the optimum and appear once.
func TestEnumerateMinRandomProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(5)
		root := rng.Intn(n)
		edges := randomDigraph(rng, n)
		sol, err := Solve(n, root, edges)
		if err != nil {
			continue
		}
		weightOf := map[[2]int]float64{}
		for _, e := range edges {
			weightOf[[2]int{e.From, e.To}] = e.W
		}
		seen := map[string]bool{}
		ai := 0
		sol.CoOptimal(edges, 1e-9).Each(func(parents []int) bool {
			key := ""
			sum := 0.0
			for v := 0; v < n; v++ {
				key += string(rune(parents[v] + 2))
				if v == root {
					if parents[v] != -1 {
						t.Fatalf("iter %d arb %d: root has a parent", iter, ai)
					}
					continue
				}
				ew, ok := weightOf[[2]int{parents[v], v}]
				if !ok {
					t.Fatalf("iter %d arb %d: edge %d->%d does not exist", iter, ai, parents[v], v)
				}
				sum += ew
				u, hops := v, 0
				for u != root {
					u = parents[u]
					hops++
					if u < 0 || hops > n {
						t.Fatalf("iter %d arb %d: cycle or dangling chain at %d", iter, ai, v)
					}
				}
			}
			if sum > sol.Weight+1e-9 {
				t.Fatalf("iter %d arb %d: weight %v exceeds optimum %v", iter, ai, sum, sol.Weight)
			}
			if seen[key] {
				t.Fatalf("iter %d: duplicate arborescence streamed", iter)
			}
			seen[key] = true
			ai++
			return true
		})
	}
}
