// Package hierarchy represents reconstructed class hierarchies as
// node-labeled directed forests (NLD-forests, §4.1) over binary types
// (vtable addresses), and implements the application distance of §6.3: for
// each type, how many ground-truth derived types the reconstruction misses
// and how many spurious ones it adds, averaged over all types.
package hierarchy

import (
	"fmt"
	"sort"
	"strings"
)

// Forest is an NLD-forest: each node has at most one parent.
type Forest struct {
	nodes   []uint64
	nodeSet map[uint64]bool
	parent  map[uint64]uint64
}

// NewForest creates a forest over the given nodes with no edges.
func NewForest(nodes []uint64) *Forest {
	f := &Forest{
		nodeSet: make(map[uint64]bool, len(nodes)),
		parent:  map[uint64]uint64{},
	}
	for _, n := range nodes {
		if !f.nodeSet[n] {
			f.nodeSet[n] = true
			f.nodes = append(f.nodes, n)
		}
	}
	sort.Slice(f.nodes, func(i, j int) bool { return f.nodes[i] < f.nodes[j] })
	return f
}

// Nodes returns the node set in ascending order.
func (f *Forest) Nodes() []uint64 { return append([]uint64(nil), f.nodes...) }

// Has reports whether t is a node.
func (f *Forest) Has(t uint64) bool { return f.nodeSet[t] }

// SetParent makes parent the parent of child. Both must be nodes; the edge
// must not close a cycle.
func (f *Forest) SetParent(child, parent uint64) error {
	if !f.nodeSet[child] || !f.nodeSet[parent] {
		return fmt.Errorf("hierarchy: unknown node in edge 0x%x -> 0x%x", parent, child)
	}
	if child == parent {
		return fmt.Errorf("hierarchy: self edge on 0x%x", child)
	}
	for a := parent; ; {
		if a == child {
			return fmt.Errorf("hierarchy: edge 0x%x -> 0x%x closes a cycle", parent, child)
		}
		p, ok := f.parent[a]
		if !ok {
			break
		}
		a = p
	}
	f.parent[child] = parent
	return nil
}

// Parent returns the parent of t, if any.
func (f *Forest) Parent(t uint64) (uint64, bool) {
	p, ok := f.parent[t]
	return p, ok
}

// Roots returns all nodes without parents, ascending.
func (f *Forest) Roots() []uint64 {
	var out []uint64
	for _, n := range f.nodes {
		if _, ok := f.parent[n]; !ok {
			out = append(out, n)
		}
	}
	return out
}

// Children returns the direct children of t, ascending.
func (f *Forest) Children(t uint64) []uint64 {
	var out []uint64
	for _, n := range f.nodes {
		if p, ok := f.parent[n]; ok && p == t {
			out = append(out, n)
		}
	}
	return out
}

// Ancestors returns the proper ancestors of t, nearest first.
func (f *Forest) Ancestors(t uint64) []uint64 {
	var out []uint64
	for {
		p, ok := f.parent[t]
		if !ok {
			return out
		}
		out = append(out, p)
		t = p
	}
}

// AllSuccessors returns the successor sets of every node.
func (f *Forest) AllSuccessors() map[uint64]map[uint64]bool {
	out := make(map[uint64]map[uint64]bool, len(f.nodes))
	for _, n := range f.nodes {
		out[n] = map[uint64]bool{}
	}
	// One upward walk per node marks it as a successor of all ancestors.
	for _, n := range f.nodes {
		for _, a := range f.Ancestors(n) {
			out[a][n] = true
		}
	}
	return out
}

// String renders the forest with a naming function.
func (f *Forest) String(name func(uint64) string) string {
	if name == nil {
		name = func(t uint64) string { return fmt.Sprintf("0x%x", t) }
	}
	var b strings.Builder
	var rec func(t uint64, depth int)
	rec = func(t uint64, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), name(t))
		for _, c := range f.Children(t) {
			rec(c, depth+1)
		}
	}
	for _, r := range f.Roots() {
		rec(r, 0)
	}
	return b.String()
}

// PossibleParentSuccessors computes successor sets from a possibleParent
// relation rather than a single hierarchy — the "without SLMs" setting of
// §6.4, where, with no way to prioritize possible parents, a type must be
// considered a successor of each of its possible parents (transitively).
func PossibleParentSuccessors(possible map[uint64][]uint64, types []uint64) map[uint64]map[uint64]bool {
	out := make(map[uint64]map[uint64]bool, len(types))
	for _, t := range types {
		out[t] = map[uint64]bool{}
	}
	// t' is a successor of t if t is reachable from t' along possible-parent
	// edges.
	for _, start := range types {
		seen := map[uint64]bool{start: true}
		stack := []uint64{start}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range possible[u] {
				if !seen[p] {
					seen[p] = true
					if m, ok := out[p]; ok {
						m[start] = true
					}
					stack = append(stack, p)
				}
			}
		}
	}
	return out
}

// TypeDistance is the per-type application distance.
type TypeDistance struct {
	Missing int // ground-truth successors absent from the reconstruction
	Added   int // reconstructed successors absent from the ground truth
}

// AppDistance aggregates §6.3's measures over a benchmark.
type AppDistance struct {
	PerType    map[uint64]TypeDistance
	AvgMissing float64
	AvgAdded   float64
}

// ApplicationDistance compares reconstructed successor sets against
// ground-truth successor sets over the given type universe.
func ApplicationDistance(gtSucc, hSucc map[uint64]map[uint64]bool, types []uint64) *AppDistance {
	res := &AppDistance{PerType: map[uint64]TypeDistance{}}
	if len(types) == 0 {
		return res
	}
	var tm, ta int
	for _, t := range types {
		g := gtSucc[t]
		h := hSucc[t]
		var d TypeDistance
		for s := range g {
			if !h[s] {
				d.Missing++
			}
		}
		for s := range h {
			if !g[s] {
				d.Added++
			}
		}
		res.PerType[t] = d
		tm += d.Missing
		ta += d.Added
	}
	res.AvgMissing = float64(tm) / float64(len(types))
	res.AvgAdded = float64(ta) / float64(len(types))
	return res
}
