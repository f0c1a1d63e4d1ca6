package arborescence

import (
	"math"
	"math/big"
	"sort"
)

// MinArborescence is Solve without the certificate: the optimum's parent
// vector and weight.
func MinArborescence(n, root int, edges []Edge) (parents []int, weight float64, err error) {
	sol, err := Solve(n, root, edges)
	if err != nil {
		return nil, 0, err
	}
	return sol.Parents, sol.Weight, nil
}

// BruteForceMin exhaustively searches for the minimum arborescence weight
// (bruteCoOptimal's minimum). It validates the Edmonds implementation and
// panics for graphs with more than 9 nodes.
func BruteForceMin(n, root int, edges []Edge) (float64, bool) {
	_, w0, ok := bruteCoOptimal(n, root, edges, 0)
	return w0, ok
}

// closesCycle reports whether making u the parent of v closes a cycle
// under the partial parent vector.
func closesCycle(parent []int, root, u, v int) bool {
	for ; u != -1 && u != root; u = parent[u] {
		if u == v {
			return true
		}
	}
	return false
}

// bruteCoOptimal lists every parent vector whose arborescence weighs at
// most the minimum plus eps, in lexicographic order, together with the
// minimum. A parent vector weighs the sum, in node order, of its cheapest
// edge into each node; a NaN edge counts as absent. It panics for graphs
// with more than 9 nodes.
func bruteCoOptimal(n, root int, edges []Edge, eps float64) (arbs [][]int, w0 float64, ok bool) {
	if n > 9 {
		panic("arborescence: brute force limited to 9 nodes")
	}
	cheapest := make([]map[int]float64, n)
	for _, e := range edges {
		if e.To == root || e.From == e.To || math.IsNaN(e.W) {
			continue
		}
		if cheapest[e.To] == nil {
			cheapest[e.To] = map[int]float64{}
		}
		if w, seen := cheapest[e.To][e.From]; !seen || e.W < w {
			cheapest[e.To][e.From] = e.W
		}
	}
	srcs := make([][]int, n)
	for v, m := range cheapest {
		for u := range m {
			srcs[v] = append(srcs[v], u)
		}
		sort.Ints(srcs[v])
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var all [][]int
	var ws []float64
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			w := 0.0
			for x, p := range parent {
				if x != root {
					w += cheapest[x][p]
				}
			}
			all = append(all, append([]int(nil), parent...))
			ws = append(ws, w)
			return
		}
		if v == root {
			rec(v + 1)
			return
		}
		for _, u := range srcs[v] {
			if closesCycle(parent, root, u, v) {
				continue
			}
			parent[v] = u
			rec(v + 1)
			parent[v] = -1
		}
	}
	rec(0)
	if len(all) == 0 {
		return nil, 0, false
	}
	w0 = math.Inf(1)
	for _, w := range ws {
		w0 = math.Min(w0, w)
	}
	for i, a := range all {
		if ws[i] <= w0+eps {
			arbs = append(arbs, a)
		}
	}
	return arbs, w0, true
}

// forcedCoOptimal lists every parent vector whose arborescence weighs at
// most the minimum plus eps, in lexicographic order, by forced-edge
// branching: nodes are fixed one at a time, and a branch fixing v's parent
// to u is kept only while the cheapest arborescence that uses every fixed
// parent stays within the bound, so every kept branch reaches a leaf.
// Nodes with one such parent alone are fixed first, which keeps the
// branching to the plateau's own nodes.
func forcedCoOptimal(n, root int, edges []Edge, eps float64) ([][]int, error) {
	sol, err := Solve(n, root, edges)
	if err != nil {
		return nil, err
	}
	bound := sol.Weight + eps
	fixed := make([]int, n)
	for i := range fixed {
		fixed[i] = -1
	}
	within := func() bool {
		var kept []Edge
		for _, e := range edges {
			if e.To != root && fixed[e.To] >= 0 && e.From != fixed[e.To] {
				continue
			}
			kept = append(kept, e)
		}
		s, err := Solve(n, root, kept)
		return err == nil && s.Weight <= bound
	}
	srcs := make([][]int, n)
	for _, e := range edges {
		if e.To != root && e.From != e.To && !containsInt(srcs[e.To], e.From) {
			srcs[e.To] = append(srcs[e.To], e.From)
		}
	}
	single := make([]int, n) // parents that stay within the bound alone
	var order []int
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		sort.Ints(srcs[v])
		for _, u := range srcs[v] {
			fixed[v] = u
			if within() {
				single[v]++
			}
		}
		fixed[v] = -1
		order = append(order, v)
	}
	sort.SliceStable(order, func(i, j int) bool { return single[order[i]] < single[order[j]] })
	var out [][]int
	var rec func(pos int)
	rec = func(pos int) {
		if pos == len(order) {
			out = append(out, append([]int(nil), fixed...))
			return
		}
		v := order[pos]
		for _, u := range srcs[v] {
			fixed[v] = u
			if within() {
				rec(pos + 1)
			}
		}
		fixed[v] = -1
	}
	rec(0)
	sort.Slice(out, func(i, j int) bool { return lexLess(out[i], out[j]) })
	return out, nil
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// refMajorityVote is the list-based majority vote that CoOptimal.Vote
// replaced, kept as its oracle. It applies the paper's heuristic for reducing multiple
// co-optimal arborescences: while more than one remains, find the node
// whose most popular parent assignment has the strongest (strict) majority
// and eliminate the arborescences that disagree. The heuristic is not
// guaranteed to leave a single arborescence; the remainder is returned.
func refMajorityVote(arbs [][]int) [][]int {
	for len(arbs) > 1 {
		n := len(arbs[0])
		bestNode, bestParent, bestCount := -1, -1, 0
		for v := 0; v < n; v++ {
			counts := map[int]int{}
			for _, a := range arbs {
				counts[a[v]]++
			}
			if len(counts) < 2 {
				continue // unanimous
			}
			// Most popular parent for v; require a strict majority leader.
			top, topC, second := -1, 0, 0
			ps := make([]int, 0, len(counts))
			for p := range counts {
				ps = append(ps, p)
			}
			sort.Ints(ps)
			for _, p := range ps {
				c := counts[p]
				if c > topC {
					second = topC
					top, topC = p, c
				} else if c > second {
					second = c
				}
			}
			if topC > second && topC > bestCount {
				bestNode, bestParent, bestCount = v, top, topC
			}
		}
		if bestNode == -1 {
			break // only ties remain; cannot reduce further
		}
		var keep [][]int
		for _, a := range arbs {
			if a[bestNode] == bestParent {
				keep = append(keep, a)
			}
		}
		if len(keep) == len(arbs) {
			break
		}
		arbs = keep
	}
	return arbs
}

// tally returns the number of c's arborescences that give v the parent p.
func tally(c *CoOptimal, v, p int) *big.Int {
	if !contains(c.Tight[v], p) {
		return new(big.Int)
	}
	return newCounter(c).tally(v, p)
}
