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

// Querier carries the per-query scratch state of a frozen model so the
// hot loop performs zero allocations: an epoch-stamped exclusion array
// sized to the alphabet (clearing it per query is a single counter
// increment, not an O(alphabet) wipe), the context-node stack, and the
// bound model's exclusion-free log terms. A Querier is not safe for
// concurrent use; give each goroutine its own.
type Querier struct {
	f *Frozen
	// exclEpoch[s] == epoch marks symbol s excluded in the current query.
	exclEpoch []uint32
	epoch     uint32
	// nexcl counts the distinct symbols excluded in the current query.
	nexcl int
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
}

// NewQuerier returns fresh scratch state for querying f.
func (f *Frozen) NewQuerier() *Querier {
	q := &Querier{}
	q.Rebind(f)
	return q
}

// deriveLogTerms fills lnSym and lnEsc for the bound model with the exact
// expressions LogProb evaluates at a level where nothing is excluded yet
// (total and distinct summed over the whole span, remaining = alphabet),
// so answering from the tables is bit-identical to recomputing. The
// tables live in the Querier, not in Frozen, so a decoded model that is
// never queried (a warm snapshot restore) pays nothing for them. Symbol
// spans tile the arena (Build lays them out so, validate enforces it),
// so every slot belongs to exactly one node.
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
// across analyses this way instead of allocating one per model). Stale
// exclusion stamps in a retained buffer are harmless: every stamp is at
// most the querier's current epoch, and each query runs under a fresh
// epoch, so old stamps can never read as "excluded".
func (q *Querier) Rebind(f *Frozen) {
	q.f = f
	if cap(q.exclEpoch) < f.alphabet {
		q.exclEpoch = make([]uint32, f.alphabet)
		q.epoch = 0
	} else {
		old := len(q.exclEpoch)
		q.exclEpoch = q.exclEpoch[:f.alphabet]
		// Region beyond the previous length may hold stamps that predate
		// an epoch wraparound (the wrap wipe only covers the then-current
		// length); zero is always safe — queries run at epoch >= 1.
		for i := old; i < f.alphabet; i++ {
			q.exclEpoch[i] = 0
		}
	}
	q.deriveLogTerms()
}

// LogProb returns ln Pr(sym | hist) under PPM-C with update exclusion at
// query time, allocation-free: once a context level is escaped, the
// symbols it accounted for are excluded from lower-order estimates (they
// cannot be the escaped symbol), which renormalizes the backoff chain
// into a proper distribution. When a context has seen every remaining
// alphabet symbol there is nothing to escape to, so the escape mass is
// dropped and the seen counts are fully normalized. Each level sums its
// integer counts and takes one Log; the first level that holds a symbol
// reads that Log from the querier's tables, derived by the same
// expression, so the result is bit-identical to recomputing it.
func (q *Querier) LogProb(sym int, hist []int) float64 {
	f := q.f
	// Context chain root -> deepest context seen in training.
	q.ctx = append(q.ctx[:0], 0)
	n := int32(0)
	for k := 1; k <= f.depth && k <= len(hist); k++ {
		c := hist[len(hist)-k]
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
	// New exclusion epoch; on uint32 wraparound wipe the stale stamps once.
	q.epoch++
	if q.epoch == 0 {
		for i := range q.exclEpoch {
			q.exclEpoch[i] = 0
		}
		q.epoch = 1
	}
	q.nexcl = 0

	inAlphabet := sym >= 0 && sym < f.alphabet
	lp := 0.0
	for k := len(q.ctx) - 1; k >= 0; k-- {
		n := q.ctx[k]
		nd := &f.nodes[n]
		if q.nexcl == 0 {
			// Nothing excluded yet: the level's terms are in the tables.
			if nd.symN == 0 {
				continue
			}
			span := f.syms[nd.symOff : nd.symOff+nd.symN]
			if i, ok := slices.BinarySearch(span, int32(sym)); ok && inAlphabet {
				return lp + q.lnSym[int(nd.symOff)+i]
			}
			if int(nd.symN) >= f.alphabet {
				return lp + math.Log(1e-12)
			}
			lp += q.lnEsc[n] // escape
			for i := nd.symOff; i < nd.symOff+nd.symN; i++ {
				q.exclEpoch[f.syms[i]] = q.epoch
			}
			q.nexcl = int(nd.symN)
			continue
		}
		total, distinct := 0, 0
		symCount := -1
		for i := nd.symOff; i < nd.symOff+nd.symN; i++ {
			s := f.syms[i]
			if q.exclEpoch[s] == q.epoch {
				continue
			}
			c := int(f.counts[i])
			total += c
			distinct++
			if int(s) == sym {
				symCount = c
			}
		}
		if distinct == 0 {
			continue // every symbol here already excluded: free backoff
		}
		remaining := f.alphabet - q.nexcl
		denom := float64(total + distinct)
		if distinct >= remaining {
			denom = float64(total)
		}
		if symCount >= 0 {
			return lp + math.Log(float64(symCount)/denom)
		}
		if distinct >= remaining {
			return lp + math.Log(1e-12)
		}
		lp += math.Log(float64(distinct) / denom) // escape
		for i := nd.symOff; i < nd.symOff+nd.symN; i++ {
			if s := f.syms[i]; q.exclEpoch[s] != q.epoch {
				q.exclEpoch[s] = q.epoch
				q.nexcl++
			}
		}
	}
	remaining := f.alphabet - q.nexcl
	if remaining < 1 {
		remaining = 1
	}
	return lp + math.Log(1.0/float64(remaining))
}

// LogProbSeq returns ln Pr(seq), allocation-free.
func (q *Querier) LogProbSeq(seq []int) float64 {
	lp := 0.0
	for i, sym := range seq {
		lo := i - q.f.depth
		if lo < 0 {
			lo = 0
		}
		lp += q.LogProb(sym, seq[lo:i])
	}
	return lp
}

// LogProbWords evaluates a whole word set in one pass, reusing this
// querier's scratch across words. out is reused when it has capacity for
// len(words) results; with a caller-provided out the call performs zero
// allocations.
func (q *Querier) LogProbWords(words [][]int, out []float64) []float64 {
	if cap(out) < len(words) {
		out = make([]float64, len(words))
	}
	out = out[:len(words)]
	for i, w := range words {
		out[i] = q.LogProbSeq(w)
	}
	return out
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
