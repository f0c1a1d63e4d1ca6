package slm

import (
	"math"
	"slices"
)

// Frozen is a trained PPM-C model over the integer alphabet
// [0, alphabet), built by a Trainer or decoded by DecodeFrozen. It is
// one contiguous node array in preorder, children in ascending symbol
// order, whose per-node symbol counts and children live as sorted spans
// inside two shared backing arenas, so a query touches a handful of
// adjacent cache lines and performs binary searches instead of map
// lookups. Queries go through a Querier, which never allocates on the
// query path. The tests pin both against a map-trie reference builder
// (reference_test.go): byte-identical layout and bit-identical
// log-probabilities.
type Frozen struct {
	depth    int
	alphabet int
	trained  int
	// nodes[0] is the root (the order-0 context).
	nodes []frozenNode
	// syms/counts hold every node's sorted (symbol, count) pairs,
	// concatenated; a node owns syms[symOff : symOff+symN].
	syms   []int32
	counts []int32
	// childSyms/childNodes hold every node's sorted (symbol, child index)
	// pairs, concatenated; a node owns childSyms[childOff : childOff+childN].
	childSyms  []int32
	childNodes []int32
}

// frozenNode is one context of the flat trie: two spans into the shared
// arenas plus the precomputed occurrence total. The distinct-symbol count
// of the context is symN.
type frozenNode struct {
	symOff, symN     int32
	childOff, childN int32
	total            int32
}

// child returns the index of node n's child for symbol s, or -1. Spans
// are sorted by symbol; small spans scan linearly (cheaper than binary
// search at trie fan-outs), large ones binary-search.
func (f *Frozen) child(n int32, s int32) int32 {
	fn := &f.nodes[n]
	lo, hi := fn.childOff, fn.childOff+fn.childN
	if fn.childN <= 8 {
		for i := lo; i < hi; i++ {
			if f.childSyms[i] == s {
				return f.childNodes[i]
			}
		}
		return -1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		switch c := f.childSyms[mid]; {
		case c < s:
			lo = mid + 1
		case c > s:
			hi = mid
		default:
			return f.childNodes[mid]
		}
	}
	return -1
}

// Querier carries the query-side scratch state of a frozen model so the
// hot loop performs zero allocations: an epoch-stamped exclusion array
// sized to the alphabet (clearing it per exclusion pass is a single
// counter increment, not an O(alphabet) wipe), the context-node stack,
// the bound model's exclusion-free log terms, and the memo of escape
// chains built since the last Rebind. A Querier is not safe for
// concurrent use; give each goroutine its own.
type Querier struct {
	f *Frozen
	// exclEpoch[s] == epoch marks symbol s excluded in the current
	// exclusion pass (see newExclusion).
	exclEpoch []uint32
	epoch     uint32
	// ctx is the reusable context-node stack (root..deepest). It grows
	// with the deepest trie walk, never from the declared depth, which a
	// decoded model does not bound.
	ctx []int32
	// lnSym[i] is ln(counts[i]/denom) and lnEsc[n] is ln(symN/denom) of
	// the bound model, for the denominators a context has before any
	// exclusion: the first context level that holds a symbol answers from
	// these instead of recounting its span and taking a log (see
	// deriveLogTerms). The buffers are reused across Rebind.
	lnSym, lnEsc []float64
	// chains[n] memoises the escape chain of the context chain whose
	// deepest node is n; it is current when its epoch equals chainEpoch,
	// which every Rebind advances. The slice has one entry per node of
	// the bound model.
	chains     []escapeChain
	chainEpoch uint32
	// levels holds the levels of every chain built since the last
	// Rebind; built counts those chains.
	levels []escapeLevel
	built  int
}

// escapeChain is the symbol-independent part of every query whose
// context chain ends at one node and whose symbol the first level that
// holds symbols does not: the levels below that one, levels[lo:hi] in
// backoff order, and tail, the answer for a symbol none of them holds.
type escapeChain struct {
	epoch  uint32
	lo, hi int32
	tail   float64
}

// escapeLevel is one context level below the first escape: the node's
// symbol span, the escape log-probability accumulated above the level,
// and the level's denominator under the exclusions above it.
type escapeLevel struct {
	symOff, symN int32
	lp, denom    float64
}

// NewQuerier returns fresh scratch state for querying f.
func (f *Frozen) NewQuerier() *Querier {
	q := &Querier{}
	q.Rebind(f)
	return q
}

// deriveLogTerms fills lnSym and lnEsc for the bound model with the exact
// expressions the backoff evaluates at a level where nothing is excluded
// yet (total and distinct summed over the whole span, remaining =
// alphabet), so answering from the tables is bit-identical to
// recomputing. The tables live in the Querier, not in Frozen, so a
// decoded model that is never queried (a warm snapshot restore) pays
// nothing for them. Symbol spans tile the arena (Build lays them out so,
// validate enforces it), so every slot belongs to exactly one node.
func (q *Querier) deriveLogTerms() {
	f := q.f
	if cap(q.lnSym) < len(f.syms) {
		q.lnSym = make([]float64, len(f.syms))
	}
	if cap(q.lnEsc) < len(f.nodes) {
		q.lnEsc = make([]float64, len(f.nodes))
	}
	q.lnSym, q.lnEsc = q.lnSym[:len(f.syms)], q.lnEsc[:len(f.nodes)]
	for n := range f.nodes {
		nd := &f.nodes[n]
		if nd.symN == 0 {
			continue
		}
		total, distinct := 0, int(nd.symN)
		for i := nd.symOff; i < nd.symOff+nd.symN; i++ {
			total += int(f.counts[i])
		}
		denom := float64(total + distinct)
		if distinct >= f.alphabet {
			denom = float64(total)
		}
		for i := nd.symOff; i < nd.symOff+nd.symN; i++ {
			q.lnSym[i] = math.Log(float64(f.counts[i]) / denom)
		}
		q.lnEsc[n] = math.Log(float64(distinct) / denom)
	}
}

// Rebind points the querier at another frozen model, reusing its scratch
// buffers when they are large enough (the corpus engine pools queriers
// across analyses this way instead of allocating one per model), and
// forgets every escape chain built for the previous one. Stale stamps in
// a retained buffer are harmless: every stamp is at most the current
// epoch of its kind, and each exclusion pass and each binding run under
// a fresh one, so old stamps can never read as "excluded" or "built".
func (q *Querier) Rebind(f *Frozen) {
	q.f = f
	q.exclEpoch = resize(q.exclEpoch, f.alphabet)
	q.chains = resize(q.chains, len(f.nodes))
	q.chainEpoch++
	if q.chainEpoch == 0 {
		clear(q.chains)
		q.chainEpoch = 1
	}
	q.levels, q.built = q.levels[:0], 0
	q.deriveLogTerms()
}

// resize returns buf resliced to n entries, made afresh when too small,
// with any region beyond the previous length zeroed. The epoch-stamped
// buffers rely on that: such a region may hold stamps that predate a
// wraparound (the wrap wipe only covers the then-current length), and
// zero is always stale, because stamps are compared against epochs >= 1.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	old := len(buf)
	buf = buf[:n]
	if old < n {
		clear(buf[old:])
	}
	return buf
}

// descend sets q.ctx to hist's context chain: the root, then each deeper
// context seen in training, up to the model's depth. It is generic over
// the symbol type so that the gram tables' int32 histories take the same
// walk as the tests' int histories.
func descend[S int | int32](q *Querier, hist []S) {
	f := q.f
	q.ctx = append(q.ctx[:0], 0)
	n := int32(0)
	for k := 1; k <= f.depth && k <= len(hist); k++ {
		c := int(hist[len(hist)-k])
		if c < 0 || c >= f.alphabet {
			break // symbol outside the alphabet: no trained context has it
		}
		child := f.child(n, int32(c))
		if child < 0 {
			break
		}
		n = child
		q.ctx = append(q.ctx, n)
	}
}

// newExclusion starts an exclusion pass with no symbol excluded: a new
// epoch, with the stale stamps wiped once on uint32 wraparound.
func (q *Querier) newExclusion() {
	q.epoch++
	if q.epoch == 0 {
		clear(q.exclEpoch)
		q.epoch = 1
	}
}

// logProbSym returns ln Pr(sym | the context chain descend set) under
// PPM-C with update exclusion at query time, allocation-free once the
// querier is warm. Once a context level is escaped, the symbols it
// accounted for are excluded from lower-order estimates (they cannot be
// the escaped symbol), which renormalizes the backoff chain into a
// proper distribution. When a context has seen every remaining alphabet
// symbol there is nothing to escape to, so the escape mass is dropped and
// the seen counts are fully normalized.
//
// The first level that holds a symbol answers from the querier's tables.
// A symbol it lacks escapes into the chain below it, which depends on
// the deepest context node alone, not on the symbol: chain builds it
// once per node and binding, and each such query then costs one
// binary search per level and at most one Log. Every result is the same
// float expression, over the same integer counts in the same order, as
// a per-query backoff that recounts each level, so it is that backoff's
// value bit for bit.
func (q *Querier) logProbSym(sym int32) float64 {
	f := q.f
	if k := q.firstLevel(); k >= 0 {
		nd := &f.nodes[q.ctx[k]]
		if i, ok := slices.BinarySearch(f.syms[nd.symOff:nd.symOff+nd.symN], sym); ok {
			return q.lnSym[int(nd.symOff)+i]
		}
	}
	c := q.chain()
	for _, l := range q.levels[c.lo:c.hi] {
		if i, ok := slices.BinarySearch(f.syms[l.symOff:l.symOff+l.symN], sym); ok {
			return l.lp + math.Log(float64(f.counts[int(l.symOff)+i])/l.denom)
		}
	}
	return c.tail
}

// firstLevel returns the index in q.ctx of the deepest context level
// that holds a symbol, or -1 when none does (an untrained model).
func (q *Querier) firstLevel() int {
	k := len(q.ctx) - 1
	for k >= 0 && q.f.nodes[q.ctx[k]].symN == 0 {
		k--
	}
	return k
}

// chain returns the memoised escape chain of the context chain
// descend set, building it on first use since the last Rebind: one
// exclusion pass over the levels below the first that holds a symbol,
// recording each level that has a symbol left, up to a level that holds
// every remaining symbol (whose tail is ln 1e-12) or past the root
// (whose tail is the uniform ln(1/remaining)). A symbol that some level
// holds is excluded at none above it, or the query would have ended
// there, so the levels' searches need no exclusion stamps.
func (q *Querier) chain() *escapeChain {
	c := &q.chains[q.ctx[len(q.ctx)-1]]
	if c.epoch == q.chainEpoch {
		return c
	}
	f := q.f
	q.newExclusion()
	q.built++
	c.epoch = q.chainEpoch
	c.lo = int32(len(q.levels))
	nexcl := 0
	lp := 0.0
	k := q.firstLevel()
	if k >= 0 {
		n := q.ctx[k]
		nd := &f.nodes[n]
		if int(nd.symN) >= f.alphabet {
			c.hi, c.tail = c.lo, lp+math.Log(1e-12)
			return c
		}
		lp += q.lnEsc[n] // escape
		for i := nd.symOff; i < nd.symOff+nd.symN; i++ {
			q.exclEpoch[f.syms[i]] = q.epoch
		}
		nexcl = int(nd.symN)
		k--
	}
	for ; k >= 0; k-- {
		nd := &f.nodes[q.ctx[k]]
		total, distinct := 0, 0
		for i := nd.symOff; i < nd.symOff+nd.symN; i++ {
			if q.exclEpoch[f.syms[i]] != q.epoch {
				total += int(f.counts[i])
				distinct++
			}
		}
		if distinct == 0 {
			continue // every symbol here already excluded: free backoff
		}
		remaining := f.alphabet - nexcl
		denom := float64(total + distinct)
		if distinct >= remaining {
			denom = float64(total)
		}
		q.levels = append(q.levels, escapeLevel{nd.symOff, nd.symN, lp, denom})
		if distinct >= remaining {
			c.hi, c.tail = int32(len(q.levels)), lp+math.Log(1e-12)
			return c
		}
		lp += math.Log(float64(distinct) / denom) // escape
		for i := nd.symOff; i < nd.symOff+nd.symN; i++ {
			if s := f.syms[i]; q.exclEpoch[s] != q.epoch {
				q.exclEpoch[s] = q.epoch
				nexcl++
			}
		}
	}
	// remaining >= 1: a level escapes only when it lacks some symbol
	// that is not excluded yet.
	remaining := f.alphabet - nexcl
	c.hi, c.tail = int32(len(q.levels)), lp+math.Log(1.0/float64(remaining))
	return c
}

// Dump renders the trained context tree with the probability each context
// assigns to each next symbol and to escape — the Fig. 8 view of a model.
// name maps symbols to display strings.
func (f *Frozen) Dump(name func(int) string) string {
	var d dumper
	var walk func(n int32, depth int)
	walk = func(n int32, depth int) {
		nd := &f.nodes[n]
		d.syms = d.syms[:0]
		d.counts = d.counts[:0]
		for i := nd.symOff; i < nd.symOff+nd.symN; i++ {
			d.syms = append(d.syms, int(f.syms[i]))
			d.counts = append(d.counts, int(f.counts[i]))
		}
		d.line(depth, int(nd.total), name)
		for i := nd.childOff; i < nd.childOff+nd.childN; i++ {
			d.path = append(d.path, int(f.childSyms[i]))
			walk(f.childNodes[i], depth+1)
			d.path = d.path[:len(d.path)-1]
		}
	}
	walk(0, 0)
	return d.b.String()
}
