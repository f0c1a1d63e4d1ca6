package arborescence

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sort"
)

// CoOptimal describes every co-optimal arborescence of a graph without
// listing them. By complementary slackness on Edmonds' dual (Solution), an
// arborescence is optimal iff it uses only tight edges (reduced cost zero)
// and enters every set of positive dual exactly once (Camerini, Fratta &
// Maffioli, "The k best spanning arborescences of a network", Networks
// 1980). Under a tolerance eps an edge is tight iff its reduced cost is at
// most eps, and a set binds iff its dual exceeds eps.
//
// The co-optimal arborescences are the parent vectors that pick, for every
// non-root node v, a parent from Tight[v], contain no cycle, and enter
// every set of Sets exactly once.
type CoOptimal struct {
	Root int
	// Tight[v] lists the distinct sources of v's tight in-edges,
	// ascending; it is empty for the root.
	Tight [][]int
	// Sets lists the binding sets, each ascending and after every set it
	// contains. A binding set none of whose members has a second tight
	// parent constrains nothing and is left out, so a graph where no node
	// has a second tight parent has no Sets.
	Sets [][]int
}

// CoOptimal derives the co-optimal structure of the graph sol solved
// (edges must be the same slice) under tolerance eps. The optimum's own
// edges are tight by construction; they are kept even where infinite
// weights leave a reduced cost undefined.
func (sol *Solution) CoOptimal(edges []Edge, eps float64) *CoOptimal {
	c := &CoOptimal{Root: sol.Root, Tight: make([][]int, len(sol.Parents))}
	add := func(u, v int) {
		if k, found := slices.BinarySearch(c.Tight[v], u); !found {
			c.Tight[v] = slices.Insert(c.Tight[v], k, u)
		}
	}
	for v, p := range sol.Parents {
		if v != sol.Root {
			add(p, v)
		}
	}
	for i, e := range edges {
		if sol.Reduced[i] <= eps {
			add(e.From, e.To)
		}
	}
	for i, s := range sol.Sets {
		if len(s) > 1 && sol.Dual[i] > eps && c.multi(s) {
			c.Sets = append(c.Sets, s)
		}
	}
	return c
}

// multi reports whether some node of s (any node when s is nil) has more
// than one tight parent.
func (c *CoOptimal) multi(s []int) bool {
	for v, ps := range c.Tight {
		if len(ps) > 1 && (s == nil || contains(s, v)) {
			return true
		}
	}
	return false
}

// contains reports whether the ascending list s holds v.
func contains(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// Count returns the number of co-optimal arborescences. A structure where
// no node has a second tight parent counts 1 (its one parent vector, if
// that enters every set once) without further work. Otherwise the count
// is a product of directed matrix-tree determinants (Tutte), one per
// binding set and entry node plus one for the whole graph: an arborescence
// enters each binding set S once, at some node u, and inside S it is an
// arborescence of S rooted at u.
func (c *CoOptimal) Count() *big.Int {
	if !c.multi(nil) {
		if c.Contains(c.first()) {
			return big.NewInt(1)
		}
		return new(big.Int)
	}
	return newCounter(c).total()
}

// first returns the parent vector of every node's first tight parent.
func (c *CoOptimal) first() []int {
	parent := make([]int, len(c.Tight))
	for v, ps := range c.Tight {
		parent[v] = -1
		if v != c.Root {
			parent[v] = ps[0]
		}
	}
	return parent
}

// Vote applies the paper's majority vote to the co-optimal set and returns
// the survivors' structure. While more than one arborescence remains, it
// finds the node whose most popular parent has the strongest strict
// majority (its tally above every other parent's; the first such node in
// index order among equal tallies) and keeps only the arborescences that
// give it that parent, which restricts the node's tight parents to that
// one. It stops when every node's tallies are unanimous or tied at the
// top, so several arborescences may survive. The tallies are exact
// counts, so the outcome is that of voting over the full list.
func (c *CoOptimal) Vote() *CoOptimal {
	cur := &CoOptimal{Root: c.Root, Tight: append([][]int(nil), c.Tight...), Sets: c.Sets}
	k := newCounter(cur)
	for cur.multi(nil) {
		bestNode, bestParent, bestCount := -1, -1, new(big.Int)
		for v, ps := range cur.Tight {
			if len(ps) < 2 {
				continue
			}
			top, topC, second, seen := -1, new(big.Int), new(big.Int), 0
			for _, p := range ps {
				t := k.tally(v, p)
				if t.Sign() == 0 {
					continue
				}
				seen++
				if t.Cmp(topC) > 0 {
					top, topC, second = p, t, topC
				} else if t.Cmp(second) > 0 {
					second = t
				}
			}
			if seen > 1 && topC.Cmp(second) > 0 && topC.Cmp(bestCount) > 0 {
				bestNode, bestParent, bestCount = v, top, topC
			}
		}
		if bestNode < 0 {
			break
		}
		cur.Tight[bestNode] = []int{bestParent}
		k.reset(bestNode)
	}
	var sets [][]int
	for _, s := range cur.Sets {
		if cur.multi(s) {
			sets = append(sets, s)
		}
	}
	cur.Sets = sets
	return cur
}

// Contains reports whether parent (parent[Root] = -1) is one of the
// co-optimal arborescences.
func (c *CoOptimal) Contains(parent []int) bool {
	n := len(c.Tight)
	if len(parent) != n || parent[c.Root] != -1 {
		return false
	}
	for v, p := range parent {
		if v != c.Root && !contains(c.Tight[v], p) {
			return false
		}
		for u, hops := v, 0; u != c.Root; u, hops = parent[u], hops+1 {
			if hops == n {
				return false
			}
		}
	}
	for _, s := range c.Sets {
		entered := 0
		for _, v := range s {
			if !contains(s, parent[v]) {
				entered++
			}
		}
		if entered != 1 {
			return false
		}
	}
	return true
}

// Validate checks that c is well formed — the root has no tight parent,
// every other node has at least one, each list ascending and in range,
// and the sets are laminar, without the root, and each after the sets it
// contains — so that Count, Vote and Each can run on it. Decoded
// snapshots are checked with it.
func (c *CoOptimal) Validate() error {
	n := len(c.Tight)
	if c.Root < 0 || c.Root >= n {
		return fmt.Errorf("arborescence: root %d out of range [0,%d)", c.Root, n)
	}
	ascending := func(s []int) bool {
		for i, v := range s {
			if v < 0 || v >= n || i > 0 && v <= s[i-1] {
				return false
			}
		}
		return true
	}
	for v, ps := range c.Tight {
		if (v == c.Root) != (len(ps) == 0) || !ascending(ps) || contains(ps, v) {
			return fmt.Errorf("arborescence: node %d has tight parents %v", v, ps)
		}
	}
	for i, s := range c.Sets {
		if len(s) < 2 || !ascending(s) || contains(s, c.Root) {
			return fmt.Errorf("arborescence: bad set %v", s)
		}
		for _, t := range c.Sets[:i] {
			shared := 0
			for _, v := range t {
				if contains(s, v) {
					shared++
				}
			}
			if shared != 0 && (shared != len(t) || len(t) == len(s)) {
				return fmt.Errorf("arborescence: sets %v and %v are not laminar in order", t, s)
			}
		}
	}
	return nil
}

// counter evaluates the entry counts of a CoOptimal's laminar tiers: tier
// i < len(Sets) is binding set i, tier len(Sets) the whole graph, entered
// only at the root.
type counter struct {
	c     *CoOptimal
	tiers []tier
	// memo[l][u] is the number of arborescences of tier l rooted at
	// member u that enter every binding set inside l exactly once.
	memo []map[int]*big.Int

	edges []wedge    // entries scratch
	ints  []int      // arbCount scratch
	nums  []*big.Int // arbCount scratch, zeroed before each use
}

// tier is one node of the laminar tree: a set and its partition into
// supernodes, one per maximal binding subset (kid) and one per member in
// no kid.
type tier struct {
	members []int
	in      []bool // in[v]: v is a member
	sup     []int  // sup[v]: v's supernode (members only)
	kids    []int  // kids[x]: supernode x's binding set, -1 for a lone member
}

func newCounter(c *CoOptimal) *counter {
	n := len(c.Tight)
	k := &counter{c: c, tiers: make([]tier, len(c.Sets)+1), memo: make([]map[int]*big.Int, len(c.Sets)+1)}
	// up[i] is set i's tier parent: the first later set holding its first
	// member, else the whole graph.
	up := make([]int, len(c.Sets))
	for i, s := range c.Sets {
		up[i] = len(c.Sets)
		for j := len(c.Sets) - 1; j > i; j-- {
			if contains(c.Sets[j], s[0]) {
				up[i] = j
			}
		}
	}
	for l := range k.tiers {
		t := &k.tiers[l]
		if l < len(c.Sets) {
			t.members = c.Sets[l]
		} else {
			for v := 0; v < n; v++ {
				t.members = append(t.members, v)
			}
		}
		t.in, t.sup = make([]bool, n), make([]int, n)
		for _, v := range t.members {
			t.in[v], t.sup[v] = true, -1
		}
		for i, s := range c.Sets {
			if up[i] == l {
				for _, v := range s {
					t.sup[v] = len(t.kids)
				}
				t.kids = append(t.kids, i)
			}
		}
		for _, v := range t.members {
			if t.sup[v] == -1 {
				t.sup[v] = len(t.kids)
				t.kids = append(t.kids, -1)
			}
		}
	}
	return k
}

// total returns the number of arborescences.
func (k *counter) total() *big.Int { return k.entries(len(k.tiers)-1, k.c.Root) }

// tally returns the number of arborescences that give v the parent p,
// counted with v's tight parents restricted to p.
func (k *counter) tally(v, p int) *big.Int {
	keep := k.c.Tight[v]
	k.c.Tight[v] = []int{p}
	k.reset(v)
	got := k.total()
	k.c.Tight[v] = keep
	k.reset(v)
	return got
}

// reset forgets the entry counts of the tiers holding v, the ones a change
// of v's tight parents affects.
func (k *counter) reset(v int) {
	for l := range k.memo {
		if k.tiers[l].in[v] {
			k.memo[l] = nil
		}
	}
}

// one is the count of a lone member; it is never modified.
var one = big.NewInt(1)

// entry returns supernode x's count when entered at node b: 1 for a lone
// member, else its binding set's entry count.
func (k *counter) entry(t *tier, x, b int) *big.Int {
	if t.kids[x] < 0 {
		return one
	}
	return k.entries(t.kids[x], b)
}

// entries returns the number of arborescences of tier l rooted at its
// member u that enter every binding set inside l exactly once.
func (k *counter) entries(l, u int) *big.Int {
	if got, ok := k.memo[l][u]; ok {
		return got
	}
	t := &k.tiers[l]
	r := t.sup[u]
	// The tier graph: supernodes, with every tight edge a→b between two
	// of them weighted by the count of b's supernode entered at b. It is
	// built on top of k.edges, which the kids' counts use as a stack.
	base := len(k.edges)
	for _, b := range t.members {
		x := t.sup[b]
		if x == r {
			continue
		}
		var w *big.Int
		for _, a := range k.c.Tight[b] {
			if t.in[a] && t.sup[a] != x {
				if w == nil {
					w = k.entry(t, x, b)
				}
				if w.Sign() != 0 {
					k.edges = append(k.edges, wedge{t.sup[a], x, w})
				}
			}
		}
	}
	got := k.arbCount(len(t.kids), r, k.edges[base:])
	k.edges = k.edges[:base]
	got.Mul(got, k.entry(t, r, u))
	if k.memo[l] == nil {
		k.memo[l] = map[int]*big.Int{}
	}
	k.memo[l][u] = got
	return got
}

// wedge is a weighted edge of a tier graph.
type wedge struct {
	from, to int
	w        *big.Int
}

// arbCount returns the weighted number of arborescences of the graph on m
// nodes rooted at r, whose edges all join distinct nodes and none enters
// r: the sum over arborescences of the product of their edge weights. A
// node whose in-edges all come from one node is merged into it first,
// since every arborescence uses one of those edges; the rest is, by
// Tutte's directed matrix-tree theorem, the determinant of the reduced
// in-degree Laplacian: L[b][b] sums b's in-weights and L[a][b] subtracts
// a→b's, over the nodes other than r.
func (k *counter) arbCount(m, r int, es []wedge) *big.Int {
	if cap(k.ints) < 3*m {
		k.ints = make([]int, 3*m)
	}
	rep, src, idx := k.ints[:m], k.ints[m:2*m], k.ints[2*m:3*m]
	for v := range rep {
		rep[v] = v
	}
	find := func(v int) int {
		for rep[v] != v {
			rep[v] = rep[rep[v]]
			v = rep[v]
		}
		return v
	}
	sum := k.scratch(m)
	out := big.NewInt(1)
	for merged := true; merged; {
		// src[b]: b's single in-source, -1 for none, -2 for several.
		for v := range src {
			src[v] = -1
		}
		for _, e := range es {
			if a, b := find(e.from), find(e.to); a == b {
			} else if src[b] == -1 {
				src[b] = a
			} else if src[b] != a {
				src[b] = -2
			}
		}
		for v, a := range src {
			if a == -1 && v != r && find(v) == v {
				return new(big.Int)
			}
		}
		for _, e := range es {
			if b := find(e.to); src[b] >= 0 && find(e.from) == src[b] {
				sum[b].Add(sum[b], e.w)
			}
		}
		// Merge every forced node into its source. Forced nodes feeding
		// each other form a cycle nothing else enters: no arborescence.
		merged = false
		for v, a := range src {
			if a >= 0 {
				if find(a) == v {
					return new(big.Int)
				}
				rep[v] = find(a)
				out.Mul(out, sum[v])
				sum[v].SetInt64(0)
				merged = true
			}
		}
	}
	d := 0
	for v := range idx {
		if idx[v] = -1; find(v) == v && v != r {
			idx[v] = d
			d++
		}
	}
	lap := k.scratch(d * d)
	for _, e := range es {
		if a, b := find(e.from), find(e.to); a != b {
			lap[idx[b]*d+idx[b]].Add(lap[idx[b]*d+idx[b]], e.w)
			if a != r {
				lap[idx[a]*d+idx[b]].Sub(lap[idx[a]*d+idx[b]], e.w)
			}
		}
	}
	return out.Mul(out, det(lap, d))
}

// scratch returns n reusable integers, all zero.
func (k *counter) scratch(n int) []*big.Int {
	for len(k.nums) < n {
		k.nums = append(k.nums, new(big.Int))
	}
	for _, x := range k.nums[:n] {
		x.SetInt64(0)
	}
	return k.nums[:n]
}

// det returns the determinant of the d×d integer matrix a (row-major),
// which it overwrites (Bareiss' fraction-free elimination). A step whose
// operands and products fit in int64 runs without math/big arithmetic.
func det(a []*big.Int, d int) *big.Int {
	neg := false
	prev, t := big.NewInt(1), new(big.Int)
	for k := 0; k < d-1; k++ {
		if a[k*d+k].Sign() == 0 {
			p := k + 1
			for p < d && a[p*d+k].Sign() == 0 {
				p++
			}
			if p == d {
				return new(big.Int)
			}
			for j := 0; j < d; j++ {
				a[k*d+j], a[p*d+j] = a[p*d+j], a[k*d+j]
			}
			neg = !neg
		}
		pivot := a[k*d+k]
		for i := k + 1; i < d; i++ {
			for j := k + 1; j < d; j++ {
				x, y, z := a[i*d+j], a[i*d+k], a[k*d+j]
				if v, ok := mulSubQuo(x, pivot, y, z, prev); ok {
					x.SetInt64(v)
					continue
				}
				x.Mul(x, pivot)
				x.Sub(x, t.Mul(y, z))
				x.Quo(x, prev)
			}
		}
		prev.Set(pivot)
	}
	out := big.NewInt(1)
	if d > 0 {
		out.Set(a[d*d-1])
	}
	if neg {
		out.Neg(out)
	}
	return out
}

// mulSubQuo returns (x·p − y·z)/q in int64 arithmetic, with ok false when
// an operand or an intermediate value does not fit.
func mulSubQuo(x, p, y, z, q *big.Int) (int64, bool) {
	if !x.IsInt64() || !p.IsInt64() || !y.IsInt64() || !z.IsInt64() || !q.IsInt64() {
		return 0, false
	}
	hi1, lo1 := mul128(x.Int64(), p.Int64())
	hi2, lo2 := mul128(y.Int64(), z.Int64())
	lo, borrow := bits.Sub64(lo1, lo2, 0)
	if hi, _ := bits.Sub64(hi1, hi2, borrow); int64(hi) != int64(lo)>>63 || int64(lo) == math.MinInt64 {
		return 0, false // MinInt64 would overflow a division by -1
	}
	return int64(lo) / q.Int64(), true
}

// Each calls fn with every co-optimal arborescence, as a parent vector
// with parent[Root] = -1, until fn returns false. The vector is reused
// between calls. Every branch the stream takes ends in an arborescence.
//
// The order is fixed by the structure. The whole graph's tier comes
// first, then its binding subsets, those with fewer arborescences for
// their entry first, recursively. Within a tier the supernodes (binding
// subsets in Sets order, then lone members ascending) pick their entry
// edge in that order, each trying its candidates by entry node, then
// parent, ascending.
func (c *CoOptimal) Each(fn func(parent []int) bool) {
	if !c.multi(nil) {
		if parent := c.first(); c.Contains(parent) {
			fn(parent)
		}
		return
	}
	k := newCounter(c)
	parent := make([]int, len(c.Tight))
	parent[c.Root] = -1
	if k.total().Sign() != 0 {
		k.each(len(k.tiers)-1, c.Root, parent, func() bool { return fn(parent) })
	}
}

// each streams the arborescences of tier l rooted at its member u into
// parent, calling next after each; it returns false as soon as next does.
func (k *counter) each(l, u int, parent []int, next func() bool) bool {
	t := &k.tiers[l]
	m, r := len(t.kids), t.sup[u]
	// cands[x]: the tight edges a→b entering supernode x from inside the
	// tier, except at entries where a binding subset has no arborescence.
	cands := make([][][2]int, m)
	for _, b := range t.members {
		if x := t.sup[b]; x != r && k.entry(t, x, b).Sign() != 0 {
			for _, a := range k.c.Tight[b] {
				if t.in[a] && t.sup[a] != x {
					cands[x] = append(cands[x], [2]int{a, b})
				}
			}
		}
	}
	up, entry, reached := make([]int, m), make([]int, m), make([]bool, m)
	for x := range up {
		up[x] = -1
	}
	entry[r] = u
	// feasible reports whether every supernode is still reachable from r:
	// an assigned one through its chosen edge, the others through any
	// candidate. Then the assignment extends to an arborescence.
	feasible := func() bool {
		for x := range reached {
			reached[x] = x == r
		}
		for grew := true; grew; {
			grew = false
			for x := range reached {
				if reached[x] {
					continue
				}
				if up[x] >= 0 {
					reached[x] = reached[up[x]]
				}
				for _, e := range cands[x] {
					reached[x] = reached[x] || up[x] < 0 && reached[t.sup[e[0]]]
				}
				grew = grew || reached[x]
			}
		}
		return !slices.Contains(reached, false)
	}
	var rec func(x int) bool
	rec = func(x int) bool {
		if x == r {
			x++
		}
		if x == m {
			// The binding subsets are a product: stream the ones with
			// fewest arborescences outermost, so that a large one is not
			// streamed again for each choice of a small one.
			var kids []int
			for y, kid := range t.kids {
				if kid >= 0 {
					kids = append(kids, y)
				}
			}
			sort.SliceStable(kids, func(i, j int) bool {
				return k.entry(t, kids[i], entry[kids[i]]).Cmp(k.entry(t, kids[j], entry[kids[j]])) < 0
			})
			return k.eachKid(t, kids, entry, parent, next)
		}
		for _, e := range cands[x] {
			y := t.sup[e[0]]
			z := y
			for z >= 0 && z != r && z != x {
				z = up[z]
			}
			if z == x {
				continue // closes a cycle
			}
			up[x], entry[x], parent[e[1]] = y, e[1], e[0]
			if feasible() && !rec(x+1) {
				return false
			}
			up[x] = -1
		}
		return true
	}
	return rec(0)
}

// eachKid streams the binding subsets xs of tier t in turn, each rooted
// at its entry, calling next once all are complete.
func (k *counter) eachKid(t *tier, xs, entry, parent []int, next func() bool) bool {
	if len(xs) == 0 {
		return next()
	}
	return k.each(t.kids[xs[0]], entry[xs[0]], parent, func() bool { return k.eachKid(t, xs[1:], entry, parent, next) })
}

// mul128 returns the signed 128-bit product of a and b.
func mul128(a, b int64) (hi, lo uint64) {
	hi, lo = bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return hi, lo
}
