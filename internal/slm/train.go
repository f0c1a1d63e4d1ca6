package slm

import (
	"fmt"
	"slices"
)

// Trainer builds a type's PPM-C model straight into its frozen form.
//
// Training position i of a sequence updates every context of length
// k ≤ min(D, i) that ends just before it. The trainer records each such
// update as one fixed-width int32 row: the context path, most recent
// symbol first, each stored as symbol+1 and padded with 0, then the
// symbol. Sorted lexicographically, the rows of one context are adjacent:
// first its own rows in ascending symbol order, then the rows of each
// child context in ascending symbol order. That is exactly the preorder,
// ascending-symbol layout of a Frozen trie, so one walk over the sorted
// rows counts the runs and lays out the arenas.
//
// A Trainer reuses its buffers from one model to the next, so a warm
// trainer allocates only the model Build returns. It is not safe for
// concurrent use.
type Trainer struct {
	depth, alphabet int
	// seqs holds every added sequence back to back; ends[i] is where
	// sequence i ends.
	seqs    []int32
	ends    []int
	longest int
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
	t.seqs, t.ends, t.longest = t.seqs[:0], t.ends[:0], 0
}

// Add trains the model on one sequence. The trainer copies it, so the
// caller may reuse seq. Empty sequences count as trained.
func (t *Trainer) Add(seq []int) {
	for _, s := range seq {
		if s < 0 || s >= t.alphabet {
			panic(fmt.Sprintf("slm: symbol %d outside alphabet %d", s, t.alphabet))
		}
		t.seqs = append(t.seqs, int32(s))
	}
	t.ends = append(t.ends, len(t.seqs))
	t.longest = max(t.longest, len(seq))
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
	t.width = k + 1
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
		trained:    len(t.ends),
		nodes:      slices.Clone(o.nodes),
		syms:       take(o.syms),
		counts:     take(o.counts),
		childSyms:  take(o.childSyms),
		childNodes: take(o.childNodes),
	}
}

// fillRows writes one row of width k+1 per (position, context length).
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
	for _, end := range t.ends {
		seq := t.seqs[start:end]
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
				row[k] = s
				p += w
			}
		}
		start = end
	}
}

// sortRows sorts the rows lexicographically with a stable LSD radix sort:
// columns last to first, byte digits low to high. A digit that is zero
// in every row, or equal in every row, leaves the order as it is and is
// skipped.
func (t *Trainer) sortRows() {
	w := t.width
	rows := t.rows
	n := len(rows) / w
	if n == 0 {
		return
	}
	spare := slices.Grow(t.spare[:0], len(rows))[:len(rows)]
	var count [256]int
	for col := w - 1; col >= 0; col-- {
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
	idx := int32(len(o.nodes))
	// The context's own rows have no path symbol at depth; they sort first.
	own := lo
	for own < hi && (depth == w-1 || t.rows[own*w+depth] == 0) {
		own++
	}
	symOff := len(o.syms)
	for j := lo; j < own; {
		r := t.runEnd(j, own, w-1)
		o.syms = append(o.syms, t.rows[j*w+w-1])
		o.counts = append(o.counts, int32(r-j))
		j = r
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
		total:    int32(own - lo),
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
