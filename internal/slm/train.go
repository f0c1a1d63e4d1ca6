package slm

import (
	"fmt"
	"math"
	"slices"
)

// Trainer builds a type's PPM-C model straight into its frozen form.
//
// Training position i of a sequence updates every context of length
// k ≤ min(D, i) that ends just before it. The trainer records each such
// update as one fixed-width int32 row: the context path, most recent
// symbol first, each stored as symbol+1 and padded with 0, then the
// symbol, then the weight, the number of times the sequence was added.
// Sorted lexicographically on every column but the weight, the rows of
// one context are adjacent: first its own rows in ascending symbol
// order, then the rows of each child context in ascending symbol order.
// That is exactly the preorder, ascending-symbol layout of a Frozen trie,
// so one walk over the sorted rows sums the weights of each run and lays
// out the arenas. PPM-C counts add up, so a sequence added with weight n
// trains the model that n unweighted adds of it would.
//
// A Trainer reuses its buffers from one model to the next, so a warm
// trainer allocates only the model Build returns. It is not safe for
// concurrent use.
type Trainer struct {
	depth, alphabet int
	// seqs holds every added sequence back to back; ends[i] is where
	// sequence i ends and weights[i] how often it was added.
	seqs    []int32
	ends    []int
	weights []int32
	longest int
	// trained is the sum of the weights; positions the weighted number
	// of sequence positions, which bounds every count of the model.
	trained, positions int
	// rows is the row table, width int32s per row; spare is the radix
	// sort's second buffer.
	rows, spare []int32
	width       int
	// out collects the layout; Build copies it into exactly sized arenas.
	out Frozen
}

// Reset starts a new model of maximum order depth over [0, alphabet). A
// negative depth counts as 0 and an alphabet below 1 as 1. Depth 2
// matches the paper's Fig. 8 example.
func (t *Trainer) Reset(depth, alphabet int) {
	t.depth, t.alphabet = max(depth, 0), max(alphabet, 1)
	t.seqs, t.ends, t.weights = t.seqs[:0], t.ends[:0], t.weights[:0]
	t.longest, t.trained, t.positions = 0, 0, 0
}

// AddN trains the model on n occurrences of seq: the model Build returns
// is the one n separate AddN(seq, 1) calls would build, but seq adds its
// rows once. The trainer copies seq, so the caller may reuse it. Empty
// sequences count as trained; n == 0 adds nothing. The model's counts are
// int32, so the weighted number of positions trained must fit one.
func (t *Trainer) AddN(seq []int32, n int) {
	if n < 0 || n > math.MaxInt32 || len(seq) > 0 && n > (math.MaxInt32-t.positions)/len(seq) {
		panic(fmt.Sprintf("slm: weight %d of a %d-symbol sequence is negative or overflows the model's int32 counts", n, len(seq)))
	}
	if n == 0 {
		return
	}
	for _, s := range seq {
		if s < 0 || int(s) >= t.alphabet {
			panic(fmt.Sprintf("slm: symbol %d outside alphabet %d", s, t.alphabet))
		}
	}
	t.seqs = append(t.seqs, seq...)
	t.ends = append(t.ends, len(t.seqs))
	t.weights = append(t.weights, int32(n))
	t.longest = max(t.longest, len(seq))
	t.trained += n
	t.positions += n * len(seq)
}

// Build returns the frozen model of every sequence added since Reset.
// The model shares nothing with the trainer, which can be Reset for the
// next one.
func (t *Trainer) Build() *Frozen {
	// No context can be longer than the longest sequence minus one, so a
	// huge declared depth costs nothing extra.
	k := 0
	if t.longest > 0 {
		k = min(t.depth, t.longest-1)
	}
	t.width = k + 2
	t.fillRows(k)
	t.sortRows()

	o := &t.out
	o.nodes, o.syms, o.counts = o.nodes[:0], o.syms[:0], o.counts[:0]
	o.childSyms, o.childNodes = o.childSyms[:0], o.childNodes[:0]
	t.emit(0, len(t.rows)/t.width, 0)

	arena := make([]int32, 2*len(o.syms)+2*len(o.childSyms))
	take := func(src []int32) []int32 {
		dst := arena[:len(src):len(src)]
		copy(dst, src)
		arena = arena[len(src):]
		return dst
	}
	return &Frozen{
		depth:      t.depth,
		alphabet:   t.alphabet,
		trained:    t.trained,
		nodes:      slices.Clone(o.nodes),
		syms:       take(o.syms),
		counts:     take(o.counts),
		childSyms:  take(o.childSyms),
		childNodes: take(o.childNodes),
	}
}

// fillRows writes one row of width k+2 per (position, context length).
func (t *Trainer) fillRows(k int) {
	w := t.width
	n, start := 0, 0
	for _, end := range t.ends {
		for i := range end - start {
			n += min(k, i) + 1
		}
		start = end
	}
	t.rows = slices.Grow(t.rows[:0], n*w)[:n*w]
	p, start := 0, 0
	for j, end := range t.ends {
		seq, weight := t.seqs[start:end], t.weights[j]
		for i, s := range seq {
			for ctx := 0; ctx <= min(k, i); ctx++ {
				row := t.rows[p : p+w]
				for c := range k {
					if c < ctx {
						row[c] = seq[i-1-c] + 1
					} else {
						row[c] = 0
					}
				}
				row[k], row[k+1] = s, weight
				p += w
			}
		}
		start = end
	}
}

// sortRows sorts the rows lexicographically on every column but the
// weight with a stable LSD radix sort: columns last to first, byte digits
// low to high. A digit that is zero in every row, or equal in every row,
// leaves the order as it is and is skipped.
func (t *Trainer) sortRows() {
	w := t.width
	rows := t.rows
	n := len(rows) / w
	if n == 0 {
		return
	}
	spare := slices.Grow(t.spare[:0], len(rows))[:len(rows)]
	var count [256]int
	for col := w - 2; col >= 0; col-- {
		var bits int32
		for j := col; j < len(rows); j += w {
			bits |= rows[j]
		}
		for shift := 0; shift < 32 && bits>>shift != 0; shift += 8 {
			count = [256]int{}
			for j := col; j < len(rows); j += w {
				count[byte(rows[j]>>shift)]++
			}
			if count[byte(rows[col]>>shift)] == n {
				continue
			}
			pos := 0
			for d, c := range count {
				count[d] = pos
				pos += c
			}
			for j := 0; j < len(rows); j += w {
				d := byte(rows[j+col] >> shift)
				copy(spare[count[d]*w:count[d]*w+w], rows[j:j+w])
				count[d]++
			}
			rows, spare = spare, rows
		}
	}
	t.rows, t.spare = rows, spare
}

// emit lays out the context whose path fills the first depth columns of
// the sorted rows [lo, hi) and returns its node index. As in the frozen
// layout's preorder, a node's child span is reserved when the node is
// emitted, before any descendant's.
func (t *Trainer) emit(lo, hi, depth int) int32 {
	w, o := t.width, &t.out
	sym := w - 2 // the symbol column; the weight follows it
	idx := int32(len(o.nodes))
	// The context's own rows have no path symbol at depth; they sort first.
	own := lo
	for own < hi && (depth == sym || t.rows[own*w+depth] == 0) {
		own++
	}
	symOff := len(o.syms)
	var total int32
	for j := lo; j < own; {
		r := t.runEnd(j, own, sym)
		var count int32
		for ; j < r; j++ {
			count += t.rows[j*w+w-1]
		}
		o.syms = append(o.syms, t.rows[(r-1)*w+sym])
		o.counts = append(o.counts, count)
		total += count
	}
	childOff := len(o.childSyms)
	for j := own; j < hi; j = t.runEnd(j, hi, depth) {
		o.childSyms = append(o.childSyms, t.rows[j*w+depth]-1)
		o.childNodes = append(o.childNodes, 0)
	}
	o.nodes = append(o.nodes, frozenNode{
		symOff:   int32(symOff),
		symN:     int32(len(o.syms) - symOff),
		childOff: int32(childOff),
		childN:   int32(len(o.childSyms) - childOff),
		total:    total,
	})
	for c, j := childOff, own; j < hi; c++ {
		r := t.runEnd(j, hi, depth)
		o.childNodes[c] = t.emit(j, r, depth+1)
		j = r
	}
	return idx
}

// runEnd returns the end of the run of rows from j, below hi, that agree
// on column col.
func (t *Trainer) runEnd(j, hi, col int) int {
	w := t.width
	v := t.rows[j*w+col]
	for j++; j < hi && t.rows[j*w+col] == v; j++ {
	}
	return j
}
