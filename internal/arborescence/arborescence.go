// Package arborescence solves the minimum-weight spanning arborescence
// problem of §4.2.2: given a directed weighted graph and a root, find the
// subset of edges forming a tree rooted at the root that reaches every node
// with minimum total weight (Chu–Liu/Edmonds' algorithm [15]).
//
// The package also enumerates co-optimal arborescences and implements the
// paper's majority-vote heuristic for reducing them ("Handling Multiple
// Arborescences").
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
	"math/bits"
	"sort"
)

// Edge is a directed weighted edge From -> To. Weights must be
// non-negative.
type Edge struct {
	From, To int
	W        float64
}

// MinArborescence computes a minimum-weight spanning arborescence of the
// graph with n nodes (0..n-1) rooted at root. It returns parent[v] for
// every node (parent[root] = -1) and the total weight. It fails if some
// node is unreachable from the root.
func MinArborescence(n, root int, edges []Edge) (parents []int, weight float64, err error) {
	if root < 0 || root >= n {
		return nil, 0, fmt.Errorf("arborescence: root %d out of range [0,%d)", root, n)
	}
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, 0, fmt.Errorf("arborescence: edge (%d,%d) out of range", e.From, e.To)
		}
		if e.W < 0 {
			return nil, 0, fmt.Errorf("arborescence: negative weight on (%d,%d)", e.From, e.To)
		}
	}
	chosen, err := solve(n, root, edges)
	if err != nil {
		return nil, 0, err
	}
	parents = make([]int, n)
	for i := range parents {
		parents[i] = -1
	}
	for _, ei := range chosen {
		e := edges[ei]
		parents[e.To] = e.From
		weight += e.W
	}
	return parents, weight, nil
}

// solve returns the indices (into edges) of the chosen arborescence edges.
// This is the classic recursive contraction algorithm.
func solve(n, root int, edges []Edge) ([]int, error) {
	// Minimum incoming edge per node.
	minIn := make([]int, n)
	for v := range minIn {
		minIn[v] = -1
	}
	for i, e := range edges {
		if e.To == root || e.From == e.To {
			continue
		}
		if minIn[e.To] == -1 || e.W < edges[minIn[e.To]].W {
			minIn[e.To] = i
		}
	}
	for v := 0; v < n; v++ {
		if v != root && minIn[v] == -1 {
			return nil, fmt.Errorf("arborescence: node %d unreachable", v)
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

	// Build the contracted graph with adjusted weights.
	type mapped struct {
		orig     int // original edge index
		replaces int // the min in-edge of e.To that this edge would displace (-1 if To not on a cycle)
	}
	var newEdges []Edge
	var back []mapped
	// A node is on a contracted cycle iff it shares its component with at
	// least one other node.
	compSize := make([]int, numComp)
	for v := 0; v < n; v++ {
		compSize[comp[v]]++
	}
	cycleNode := make([]bool, n)
	for v := 0; v < n; v++ {
		cycleNode[v] = compSize[comp[v]] > 1
	}
	for i, e := range edges {
		cu, cv := comp[e.From], comp[e.To]
		if cu == cv {
			continue
		}
		w := e.W
		rep := -1
		if cycleNode[e.To] {
			w -= edges[minIn[e.To]].W
			rep = minIn[e.To]
		}
		newEdges = append(newEdges, Edge{From: cu, To: cv, W: w})
		back = append(back, mapped{orig: i, replaces: rep})
	}

	sub, err := solve(numComp, newRoot, newEdges)
	if err != nil {
		return nil, err
	}

	// Expand: start with all cycle edges, then for every chosen contracted
	// edge add its original and remove the cycle edge it displaces. The
	// membership set is a slice indexed by edge position — collecting the
	// chosen indices with one ordered scan replaces the old map[int]bool
	// plus sort.Ints (hash insertions, iteration allocation, and a sort,
	// all per contraction level).
	inResult := make([]bool, len(edges))
	for v := 0; v < n; v++ {
		if cycleNode[v] {
			inResult[minIn[v]] = true
		}
	}
	for _, nei := range sub {
		m := back[nei]
		inResult[m.orig] = true
		if m.replaces >= 0 {
			inResult[m.replaces] = false
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

const (
	// maxEnumNodes bounds the graphs EnumerateMin searches; larger ones
	// fall back to the single optimum. It also lets one uint64 hold any
	// node set of a searched graph.
	maxEnumNodes = 32
	// maxEnumSteps is EnumerateMin's search-state budget. With many exact
	// ties the plateau below w0+eps can be combinatorial, and the lower
	// bound (the sum of per-node minima) cannot prune assignments whose
	// cheap edges form cycles; the budget keeps enumeration worst-case
	// cheap.
	maxEnumSteps = 400000
)

// enumerateHook, when non-nil, receives every graph EnumerateMinStates is
// asked to search. Only tests set it, to replay the pipeline's family
// graphs through the reference enumerator.
var enumerateHook func(n, root int, edges []Edge, eps float64, limit int)

// EnumerateMin returns up to limit arborescences (as parent vectors) whose
// total weight is within eps of the minimum, the minimum weight, whether
// the enumeration was truncated, and an error if no arborescence exists.
// With limit 1 it degenerates to MinArborescence. Enumeration is exact
// branch-and-bound and intended for the small per-family graphs of the
// pipeline.
//
// The search is fixed: nodes are assigned in index order, each node's
// candidate parents are its in-edges collected in input order and sorted
// cheapest first by one sort.Slice call (not a stable sort, so the call
// itself is part of the order), a branch is cut once its weight plus
// the sum of the remaining nodes' cheapest in-edges exceeds the minimum
// plus eps, and every branch tried is one search state. The search stops
// after 400000 states. The result is therefore whatever this fixed-order
// search finds in its first 400000 states: an implementation must keep
// both the visit order and the state count to keep the output.
//
// truncated reports that the returned set may be missing co-optimal
// arborescences for a reason the caller did not ask for: either the graph
// exceeded maxEnumNodes (only the single optimum is returned) or the
// branch-and-bound hit its state budget on a combinatorial plateau of
// exact ties. Hitting the caller-chosen limit is not flagged — that cap
// is explicit. Callers surface truncated instead of presenting a capped
// enumeration as exhaustive. When the search finds no co-optimal
// arborescence in its budget, the optimum from MinArborescence is
// returned.
func EnumerateMin(n, root int, edges []Edge, eps float64, limit int) (arbs [][]int, weight float64, truncated bool, err error) {
	arbs, weight, truncated, _, err = EnumerateMinStates(n, root, edges, eps, limit)
	return arbs, weight, truncated, err
}

// EnumerateMinStates is EnumerateMin that also returns the number of
// search states visited: 0 when there was no search (limit <= 1 or an
// over-size graph), never more than the state budget.
func EnumerateMinStates(n, root int, edges []Edge, eps float64, limit int) (arbs [][]int, weight float64, truncated bool, states int, err error) {
	if enumerateHook != nil {
		enumerateHook(n, root, edges, eps, limit)
	}
	return enumerate(n, root, edges, eps, limit, maxEnumSteps)
}

// enumerate is EnumerateMinStates with the state budget maxSteps as a
// parameter.
//
// The search is an iterative depth-first walk over levels, one per
// non-root node, with word-sized state. members[x] holds the nodes whose
// chain of assigned parents ends at x, so the edge u→v closes a cycle iff
// bit u of members[v] is set. The in-edges that pass the bound are a
// prefix of the sorted in-list, and cycle tables turn members[v] into the
// mask of in-list positions whose source it contains, so each level's
// candidate children are one mask. In-lists longer than 64 entries (only
// parallel edges produce them) are walked 64 positions at a time.
func enumerate(n, root int, edges []Edge, eps float64, limit, maxSteps int) (arbs [][]int, weight float64, truncated bool, states int, err error) {
	best, w0, err := MinArborescence(n, root, edges)
	if err != nil {
		return nil, 0, false, 0, err
	}
	if limit <= 1 {
		return [][]int{best}, w0, false, 0, nil
	}
	if n > maxEnumNodes {
		return [][]int{best}, w0, true, 0, nil
	}

	// Candidate in-edges per node, cheapest first.
	in := make([][]Edge, n)
	for _, e := range edges {
		if e.To == root || e.From == e.To {
			continue
		}
		in[e.To] = append(in[e.To], e)
	}
	nodes := []int{}
	minW := make([]float64, n)
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		sort.Slice(in[v], func(i, j int) bool { return in[v][i].W < in[v][j].W })
		nodes = append(nodes, v)
		if len(in[v]) > 0 {
			minW[v] = in[v][0].W
		}
	}
	// Remaining lower bound per position.
	lb := make([]float64, len(nodes)+1)
	for i := len(nodes) - 1; i >= 0; i-- {
		lb[i] = lb[i+1] + minW[nodes[i]]
	}

	s := newSearch(n, nodes, in, lb, w0+eps)
	var out [][]int
	// The root state: budget, then bound, then leaf (the limit is >= 2).
	steps := 1
	switch {
	case steps > maxSteps:
		truncated = true
	case lb[0] > s.bound:
	case len(nodes) == 0:
		out = append(out, append([]int(nil), s.parent...))
	default:
		out, steps, truncated = s.run(limit, maxSteps)
	}
	if len(out) == 0 {
		out = [][]int{best}
	}
	return out, w0, truncated, min(steps, maxSteps), nil
}

// search is the branch-and-bound state of one enumerate call.
type search struct {
	nibs  int // 4-bit node groups covering 0..n-1
	bound float64
	// monotone reports that no in-edge weight is NaN, so along each
	// sorted in-list the bound test turns from pass to fail at most once
	// (FP addition is monotone) and binary search finds the passing
	// prefix.
	monotone bool
	levels   []level
	parent   []int
	members  []uint64
}

// level is one depth of the search: the in-list of the node it assigns
// and the loop state of the branch being explored there.
type level struct {
	v      int
	in     []Edge  // v's in-edges, cheapest first
	lbNext float64 // the lower bound of the levels below
	// cyc[(c*nibs+j)*16+m] is the mask of chunk c's in-list positions
	// (bit i: position 64c+i) whose source is 4j+b for a set bit b of m:
	// a cycle test of 16 node sets per table, one table per nibble of
	// members[v].
	cyc []uint64

	// The last cut and chunk-0 cycle mask computed, keyed by the acc
	// and members[v] they were computed for: sibling branches above
	// often leave both unchanged.
	memoAcc     float64
	memoCut     int
	memoMembers uint64
	memoCyc     uint64

	acc  float64 // weight assigned above this level
	cut  int     // in-list positions [0, cut) pass the bound
	base int     // first in-list position of the current chunk
	mask uint64  // untried candidates of the current chunk
	end  int     // chain end that members[v] was merged into
}

func newSearch(n int, nodes []int, in [][]Edge, lb []float64, bound float64) *search {
	s := &search{
		nibs:     (n + 3) / 4,
		bound:    bound,
		monotone: true,
		levels:   make([]level, len(nodes)),
		parent:   make([]int, n),
		members:  make([]uint64, n),
	}
	for x := range s.parent {
		s.parent[x] = -1
		s.members[x] = 1 << x
	}
	for pos, v := range nodes {
		l := &s.levels[pos]
		l.v, l.in, l.lbNext = v, in[v], lb[pos+1]
		l.memoAcc = math.NaN() // equal to no acc: the first enter computes
		for _, e := range l.in {
			if math.IsNaN(e.W) {
				s.monotone = false
			}
		}
	}
	return s
}

// buildCyc fills l.cyc. A level builds its tables on first need: while
// no other node's chain ends at its node, it needs none.
func (s *search) buildCyc(l *level) {
	l.cyc = make([]uint64, (len(l.in)+63)/64*s.nibs*16)
	for c := 0; c*64 < len(l.in); c++ {
		// src[u]: the chunk's positions whose source is u.
		var src [maxEnumNodes]uint64
		for i, e := range l.in[c*64 : min(len(l.in), c*64+64)] {
			src[e.From] |= 1 << i
		}
		for j := 0; j < s.nibs; j++ {
			row := l.cyc[(c*s.nibs+j)*16:][:16]
			for m := 1; m < 16; m++ {
				row[m] = row[m&(m-1)] | src[4*j+bits.TrailingZeros(uint(m))]
			}
		}
	}
}

// run walks the search from level 0 and returns the co-optimal parent
// vectors found, the states visited (the root's included) and whether the
// budget cut the search. Every candidate child is one state, checked in
// the order budget, then limit, then leaf; its bound test is the very
// expression that admitted it into its parent's prefix, so it always
// passes and is not repeated. After the limit is reached the remaining
// candidates are still counted, since they can exhaust the budget.
func (s *search) run(limit, maxSteps int) (out [][]int, steps int, truncated bool) {
	steps = 1
	last := len(s.levels) - 1
	pos := 0
	s.enter(0, 0)
	for pos >= 0 {
		l := &s.levels[pos]
		if l.mask == 0 {
			if l.base+64 < l.cut {
				l.base += 64
				l.mask = s.candidates(l)
				continue
			}
			if pos--; pos >= 0 {
				s.retract(&s.levels[pos])
			}
			continue
		}
		k := l.base + bits.TrailingZeros64(l.mask)
		l.mask &= l.mask - 1
		if steps++; steps > maxSteps {
			return out, steps, true
		}
		if len(out) >= limit {
			continue
		}
		e := l.in[k]
		if pos == last {
			s.parent[l.v] = e.From
			out = append(out, append([]int(nil), s.parent...))
			s.parent[l.v] = -1
			continue
		}
		s.assign(l, e.From)
		pos++
		s.enter(pos, l.acc+e.W)
	}
	return out, steps, false
}

// enter starts level pos with acc the weight assigned above it.
func (s *search) enter(pos int, acc float64) {
	l := &s.levels[pos]
	l.acc, l.base = acc, 0
	if acc != l.memoAcc {
		l.memoAcc, l.memoCut = acc, s.cut(l, acc)
	}
	l.cut = l.memoCut
	l.mask = s.candidates(l)
}

// cut returns the number of leading in-list edges that pass the bound:
// the position of the first one whose acc+W+lbNext exceeds it, as the
// reference's loop breaks there.
func (s *search) cut(l *level, acc float64) int {
	k := len(l.in)
	if !s.monotone {
		i := 0
		for i < k && !(acc+l.in[i].W+l.lbNext > s.bound) {
			i++
		}
		return i
	}
	if k == 0 || !(acc+l.in[k-1].W+l.lbNext > s.bound) {
		return k
	}
	lo, hi := 0, k-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if acc+l.in[mid].W+l.lbNext > s.bound {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// candidates returns the current chunk's positions that pass the bound
// and close no cycle, that is whose source's chain does not end at l.v.
func (s *search) candidates(l *level) uint64 {
	k := l.cut - l.base
	if k <= 0 {
		return 0
	}
	mask := ^uint64(0)
	if k < 64 {
		mask = 1<<k - 1
	}
	mv := s.members[l.v]
	if mv == 1<<l.v {
		return mask // no chain but v's own ends at v, and v has no self-loop
	}
	if l.base == 0 && mv == l.memoMembers {
		return mask &^ l.memoCyc
	}
	if l.cyc == nil {
		s.buildCyc(l)
	}
	var cycMask uint64
	cyc := l.cyc[l.base/64*s.nibs*16:]
	for j := 0; j < s.nibs; j++ {
		cycMask |= cyc[j*16+int(mv>>(4*j)&15)]
	}
	if l.base == 0 {
		l.memoMembers, l.memoCyc = mv, cycMask
	}
	return mask &^ cycMask
}

// assign makes p the parent of l.v: the nodes whose chain ended at l.v
// now end where p's chain ends.
func (s *search) assign(l *level, p int) {
	s.parent[l.v] = p
	x := p
	for s.parent[x] >= 0 {
		x = s.parent[x]
	}
	s.members[x] |= s.members[l.v]
	l.end = x
}

// retract undoes assign.
func (s *search) retract(l *level) {
	s.members[l.end] &^= s.members[l.v]
	s.parent[l.v] = -1
}

// MajorityVote applies the paper's heuristic for reducing multiple
// co-optimal arborescences: while more than one remains, find the node
// whose most popular parent assignment has the strongest (strict) majority
// and eliminate the arborescences that disagree. The heuristic is not
// guaranteed to leave a single arborescence; the remainder is returned.
func MajorityVote(arbs [][]int) [][]int {
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

// BruteForceMin exhaustively searches for the minimum arborescence weight.
// It exists to validate the Edmonds implementation in tests and panics for
// graphs with more than 9 nodes.
func BruteForceMin(n, root int, edges []Edge) (float64, bool) {
	if n > 9 {
		panic("arborescence: brute force limited to 9 nodes")
	}
	in := make([][]Edge, n)
	for _, e := range edges {
		if e.To == root || e.From == e.To {
			continue
		}
		in[e.To] = append(in[e.To], e)
	}
	nodes := []int{}
	for v := 0; v < n; v++ {
		if v != root {
			if len(in[v]) == 0 {
				return 0, false
			}
			nodes = append(nodes, v)
		}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	best := math.Inf(1)
	var rec func(pos int, acc float64)
	rec = func(pos int, acc float64) {
		if pos == len(nodes) {
			if acc < best {
				best = acc
			}
			return
		}
		v := nodes[pos]
		for _, e := range in[v] {
			cyc := false
			for u := e.From; u != -1 && u != root; u = parent[u] {
				if u == v {
					cyc = true
					break
				}
			}
			if cyc {
				continue
			}
			parent[v] = e.From
			rec(pos+1, acc+e.W)
			parent[v] = -1
		}
	}
	rec(0, 0)
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}
