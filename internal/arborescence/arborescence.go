// Package arborescence solves the minimum-weight spanning arborescence
// problem of §4.2.2: given a directed weighted graph and a root, find the
// subset of edges forming a tree rooted at the root that reaches every node
// with minimum total weight (Chu–Liu/Edmonds' algorithm [15]).
//
// The package also describes every co-optimal arborescence exactly, from
// the dual certificate of Edmonds' solve, and implements the paper's
// majority-vote heuristic for reducing them ("Handling Multiple
// Arborescences") on exact counts (see CoOptimal). Near ties follow one
// rule: under a tolerance eps an edge is tight iff its reduced cost is at
// most eps, and a contracted set binds iff its dual exceeds eps.
//
// The solver is agnostic to where the edge weights come from: by default
// they are the SLM KL divergences, but under a fused evidence
// configuration (internal/evidence) each weight is a weighted sum of
// several providers' scores. Root edges must still dominate — every
// provider's Root score bounds its edge scores, so any positive-weighted
// combination preserves Heuristic 4.1.
package arborescence

import (
	"fmt"
	"math"
	"sort"
)

// Edge is a directed weighted edge From -> To. Weights must be
// non-negative.
type Edge struct {
	From, To int
	W        float64
}

// Solution is a minimum arborescence together with the dual certificate
// of its optimality.
//
// Edmonds' algorithm solves the LP "minimize Σ w_e x_e subject to every
// node set S without the root being entered at least once" and, as it
// contracts, builds an optimal solution of the dual: a non-negative dual
// y_S per set it handles, where the handled sets form a laminar family
// (every non-root singleton plus every contracted cycle, a cycle of a
// later level being a union of earlier sets). An edge's reduced cost is
// its weight minus the duals of the sets it enters; every reduced cost is
// non-negative, every chosen edge has reduced cost zero, and the duals
// sum to the optimum's weight.
type Solution struct {
	Root int
	// Parents is Edmonds' optimum: Parents[v] is v's parent, -1 for the
	// root.
	Parents []int
	// Weight is the optimum's weight: its edges' weights summed in input
	// order.
	Weight float64
	// Sets lists the laminar family of the dual, each set ascending and
	// after every set it contains; Dual[i] is the dual of Sets[i].
	Sets [][]int
	Dual []float64
	// Reduced[e] is edges[e]'s reduced cost. Edges into the root and
	// self-loops, which no arborescence uses, get +Inf.
	Reduced []float64
}

// Solve computes a minimum-weight spanning arborescence of the graph with
// n nodes (0..n-1) rooted at root, with its dual certificate. Weights must
// be non-negative and not NaN. It fails if some node is unreachable from
// the root.
func Solve(n, root int, edges []Edge) (*Solution, error) {
	if root < 0 || root >= n {
		return nil, fmt.Errorf("arborescence: root %d out of range [0,%d)", root, n)
	}
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("arborescence: edge (%d,%d) out of range", e.From, e.To)
		}
		if !(e.W >= 0) {
			return nil, fmt.Errorf("arborescence: weight %v on (%d,%d) is negative or NaN", e.W, e.From, e.To)
		}
	}
	sol := &Solution{Root: root, Reduced: make([]float64, len(edges))}
	orig := make([]int, len(edges))
	for i := range orig {
		orig[i] = i
	}
	members := make([][]int, n)
	for v := range members {
		members[v] = []int{v}
	}
	chosen, err := solve(n, root, edges, orig, members, sol)
	if err != nil {
		return nil, err
	}
	sol.Parents = make([]int, n)
	for i := range sol.Parents {
		sol.Parents[i] = -1
	}
	for _, ei := range chosen {
		e := edges[ei]
		sol.Parents[e.To] = e.From
		sol.Weight += e.W
	}
	return sol, nil
}

// solve returns the indices (into edges) of the chosen arborescence edges.
// This is the classic recursive contraction algorithm. One call is one
// contraction level: orig maps the level's edges to input edges and
// members its nodes to input node sets. Each level records into sol the
// duals it fixes — those of its cycle nodes, or of every node at the last
// level — and the reduced costs of the edges it retires.
func solve(n, root int, edges []Edge, orig []int, members [][]int, sol *Solution) ([]int, error) {
	// Minimum incoming edge per node.
	minIn := make([]int, n)
	for v := range minIn {
		minIn[v] = -1
	}
	for i, e := range edges {
		if e.To == root || e.From == e.To {
			sol.Reduced[orig[i]] = math.Inf(1)
			continue
		}
		if minIn[e.To] == -1 || e.W < edges[minIn[e.To]].W {
			minIn[e.To] = i
		}
	}
	for v := 0; v < n; v++ {
		if v != root && minIn[v] == -1 {
			return nil, fmt.Errorf("arborescence: node %d unreachable", members[v][0])
		}
	}

	// Detect cycles among the chosen minimum in-edges.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	comp := make([]int, n)
	for v := range comp {
		comp[v] = -1
	}
	numComp := 0
	hasCycle := false
	for v := 0; v < n; v++ {
		if color[v] != white {
			continue
		}
		// Walk the parent chain.
		path := []int{}
		u := v
		for u != root && color[u] == white {
			color[u] = gray
			path = append(path, u)
			u = edges[minIn[u]].From
		}
		if u != root && color[u] == gray {
			// Found a new cycle; nodes from u onward in path are on it.
			onCycle := false
			for _, w := range path {
				if w == u {
					onCycle = true
				}
				if onCycle {
					comp[w] = numComp
				}
			}
			numComp++
			hasCycle = true
		}
		for _, w := range path {
			color[w] = black
		}
	}
	if !hasCycle {
		// The last level: every node's dual is its minimum in-edge, and
		// every remaining edge retires.
		for v := 0; v < n; v++ {
			if v != root {
				sol.Sets = append(sol.Sets, members[v])
				sol.Dual = append(sol.Dual, edges[minIn[v]].W)
			}
		}
		for i, e := range edges {
			if e.To != root && e.From != e.To {
				sol.Reduced[orig[i]] = e.W - edges[minIn[e.To]].W
			}
		}
		out := make([]int, 0, n-1)
		for v := 0; v < n; v++ {
			if v != root {
				out = append(out, minIn[v])
			}
		}
		return out, nil
	}

	// Assign components to non-cycle nodes.
	for v := 0; v < n; v++ {
		if comp[v] == -1 {
			comp[v] = numComp
			numComp++
		}
	}
	newRoot := comp[root]

	// A node is on a contracted cycle iff it shares its component with at
	// least one other node. Cycle nodes get their duals now; the next
	// level's nodes are the components.
	compSize := make([]int, numComp)
	for v := 0; v < n; v++ {
		compSize[comp[v]]++
	}
	cycleNode := make([]bool, n)
	newMembers := make([][]int, numComp)
	for v := 0; v < n; v++ {
		cycleNode[v] = compSize[comp[v]] > 1
		if cycleNode[v] {
			sol.Sets = append(sol.Sets, members[v])
			sol.Dual = append(sol.Dual, edges[minIn[v]].W)
			newMembers[comp[v]] = append(newMembers[comp[v]], members[v]...)
		} else {
			newMembers[comp[v]] = members[v]
		}
	}
	for c, m := range newMembers {
		if compSize[c] > 1 {
			sort.Ints(m)
		}
	}

	// Build the contracted graph with adjusted weights. An edge inside a
	// cycle retires here.
	newEdges := make([]Edge, 0, len(edges))
	// replaces: the min in-edge of e.To this edge would displace (-1 if
	// To is not on a cycle).
	newOrig, replaces := make([]int, 0, len(edges)), make([]int, 0, len(edges))
	for i, e := range edges {
		if e.To == root || e.From == e.To {
			continue
		}
		cu, cv := comp[e.From], comp[e.To]
		if cu == cv {
			sol.Reduced[orig[i]] = e.W - edges[minIn[e.To]].W
			continue
		}
		w := e.W
		rep := -1
		if cycleNode[e.To] {
			w -= edges[minIn[e.To]].W
			rep = minIn[e.To]
		}
		newEdges = append(newEdges, Edge{From: cu, To: cv, W: w})
		newOrig = append(newOrig, i)
		replaces = append(replaces, rep)
	}
	levelOrig := make([]int, len(newOrig))
	for k, i := range newOrig {
		levelOrig[k] = orig[i]
	}

	sub, err := solve(numComp, newRoot, newEdges, levelOrig, newMembers, sol)
	if err != nil {
		return nil, err
	}

	// Expand: start with all cycle edges, then for every chosen contracted
	// edge add its original and remove the cycle edge it displaces. The
	// membership set is a slice indexed by edge position, collected with
	// one ordered scan.
	inResult := make([]bool, len(edges))
	for v := 0; v < n; v++ {
		if cycleNode[v] {
			inResult[minIn[v]] = true
		}
	}
	for _, k := range sub {
		inResult[newOrig[k]] = true
		if replaces[k] >= 0 {
			inResult[replaces[k]] = false
		}
	}
	out := make([]int, 0, n-1)
	for ei, in := range inResult {
		if in {
			out = append(out, ei)
		}
	}
	return out, nil
}
