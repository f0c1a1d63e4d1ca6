package slm

import (
	"math"
	"sort"
)

// This file holds the reference implementation the production code is
// pinned against: a map-trie PPM-C builder (training, queries and the
// Fig. 8 dump) written independently of the Trainer, its copy into the
// flat layout, and the divergences over a word set that the
// DistanceCalculator must reproduce.

// refModel is a PPM-C variable-order Markov model over [0, alphabet)
// stored as a pointer trie of Go maps.
type refModel struct {
	depth    int
	alphabet int
	root     *refNode
	// seqs records the training corpus, so a test can train the
	// production Trainer on the same input (see build). Callers must not
	// change a sequence after training on it.
	seqs [][]int
}

type refNode struct {
	children map[int]*refNode
	counts   map[int]int
	total    int
}

func newRefNode() *refNode {
	return &refNode{children: map[int]*refNode{}, counts: map[int]int{}}
}

// newRef returns an empty reference model, clamped like Trainer.Reset.
func newRef(depth, alphabet int) *refModel {
	return &refModel{depth: max(depth, 0), alphabet: max(alphabet, 1), root: newRefNode()}
}

// refTrain trains a reference model on seqs.
func refTrain(depth, alphabet int, seqs [][]int) *refModel {
	m := newRef(depth, alphabet)
	for _, s := range seqs {
		m.Train(s)
	}
	return m
}

func (m *refModel) Depth() int    { return m.depth }
func (m *refModel) Alphabet() int { return m.alphabet }
func (m *refModel) Trained() int  { return len(m.seqs) }

// Train updates every context of length 0..D ending just before each
// position of seq.
func (m *refModel) Train(seq []int) {
	for i, sym := range seq {
		n := m.root
		n.counts[sym]++
		n.total++
		for k := 1; k <= m.depth && k <= i; k++ {
			c := seq[i-k] // most recent to older
			child, ok := n.children[c]
			if !ok {
				child = newRefNode()
				n.children[c] = child
			}
			n = child
			n.counts[sym]++
			n.total++
		}
	}
	m.seqs = append(m.seqs, seq)
}

func (m *refModel) contextNodes(hist []int) []*refNode {
	nodes := []*refNode{m.root}
	n := m.root
	for k := 1; k <= m.depth && k <= len(hist); k++ {
		child, ok := n.children[hist[len(hist)-k]]
		if !ok {
			break
		}
		n = child
		nodes = append(nodes, n)
	}
	return nodes
}

// LogProb returns ln Pr(sym | hist) under PPM-C with update exclusion at
// query time, recounting every level from the maps.
func (m *refModel) LogProb(sym int, hist []int) float64 {
	nodes := m.contextNodes(hist)
	excluded := map[int]bool{}
	lp := 0.0
	for k := len(nodes) - 1; k >= 0; k-- {
		n := nodes[k]
		total, distinct := 0, 0
		for s, c := range n.counts {
			if excluded[s] {
				continue
			}
			total += c
			distinct++
		}
		if distinct == 0 {
			continue
		}
		remaining := m.alphabet - len(excluded)
		denom := float64(total + distinct)
		if distinct >= remaining {
			denom = float64(total)
		}
		if c, ok := n.counts[sym]; ok && !excluded[sym] {
			return lp + math.Log(float64(c)/denom)
		}
		if distinct >= remaining {
			return lp + math.Log(1e-12)
		}
		lp += math.Log(float64(distinct) / denom)
		for s := range n.counts {
			excluded[s] = true
		}
	}
	remaining := m.alphabet - len(excluded)
	if remaining < 1 {
		remaining = 1
	}
	return lp + math.Log(1.0/float64(remaining))
}

// LogProbSeq returns ln Pr(seq), the history truncated to the depth.
func (m *refModel) LogProbSeq(seq []int) float64 {
	lp := 0.0
	for i, sym := range seq {
		lp += m.LogProb(sym, seq[max(i-m.depth, 0):i])
	}
	return lp
}

// LogProbWords scores every word with LogProbSeq.
func (m *refModel) LogProbWords(words [][]int, out []float64) []float64 {
	if cap(out) < len(words) {
		out = make([]float64, len(words))
	}
	out = out[:len(words)]
	for i, w := range words {
		out[i] = m.LogProbSeq(w)
	}
	return out
}

// Dump renders the trie in the Fig. 8 view by walking the maps.
func (m *refModel) Dump(name func(int) string) string {
	var d dumper
	var walk func(n *refNode, depth int)
	walk = func(n *refNode, depth int) {
		d.syms = d.syms[:0]
		for s := range n.counts {
			d.syms = append(d.syms, s)
		}
		sort.Ints(d.syms)
		d.counts = d.counts[:0]
		for _, s := range d.syms {
			d.counts = append(d.counts, n.counts[s])
		}
		d.line(depth, n.total, name)
		kids := make([]int, 0, len(n.children))
		for s := range n.children {
			kids = append(kids, s)
		}
		sort.Ints(kids)
		for _, s := range kids {
			d.path = append(d.path, s)
			walk(n.children[s], depth+1)
			d.path = d.path[:len(d.path)-1]
		}
	}
	walk(m.root, 0)
	return d.b.String()
}

// Freeze copies the trie into the flat layout: nodes in preorder,
// children in ascending symbol order, each node's child span reserved
// before recursing into it. A pre-pass sizes the arenas exactly.
func (m *refModel) Freeze() *Frozen {
	var nNodes, nSyms, nKids int
	var count func(n *refNode)
	count = func(n *refNode) {
		nNodes++
		nSyms += len(n.counts)
		nKids += len(n.children)
		for _, c := range n.children {
			count(c)
		}
	}
	count(m.root)

	f := &Frozen{
		depth:      m.depth,
		alphabet:   m.alphabet,
		trained:    len(m.seqs),
		nodes:      make([]frozenNode, 0, nNodes),
		syms:       make([]int32, 0, nSyms),
		counts:     make([]int32, 0, nSyms),
		childSyms:  make([]int32, 0, nKids),
		childNodes: make([]int32, 0, nKids),
	}
	var scratch []int
	var freeze func(n *refNode) int32
	freeze = func(n *refNode) int32 {
		idx := int32(len(f.nodes))
		fn := frozenNode{
			symOff:   int32(len(f.syms)),
			symN:     int32(len(n.counts)),
			childOff: int32(len(f.childSyms)),
			childN:   int32(len(n.children)),
			total:    int32(n.total),
		}
		f.nodes = append(f.nodes, fn)
		scratch = scratch[:0]
		for s := range n.counts {
			scratch = append(scratch, s)
		}
		sort.Ints(scratch)
		for _, s := range scratch {
			f.syms = append(f.syms, int32(s))
			f.counts = append(f.counts, int32(n.counts[s]))
		}
		scratch = scratch[:0]
		for s := range n.children {
			scratch = append(scratch, s)
		}
		sort.Ints(scratch)
		kids := make([]int, len(scratch))
		copy(kids, scratch)
		for _, s := range kids {
			f.childSyms = append(f.childSyms, int32(s))
			f.childNodes = append(f.childNodes, 0)
		}
		for i, s := range kids {
			f.childNodes[fn.childOff+int32(i)] = freeze(n.children[s])
		}
		return idx
	}
	freeze(m.root)
	return f
}

// build trains the production Trainer on m's corpus.
func build(m *refModel) *Frozen {
	var t Trainer
	t.Reset(m.depth, m.alphabet)
	for _, s := range m.seqs {
		t.Add(s)
	}
	return t.Build()
}

// wordScorer is what the reference divergences read from a model: the
// reference builder and a frozen model's Querier both provide it.
type wordScorer interface {
	LogProbWords(words [][]int, out []float64) []float64
}

// refWordDist is the model's normalized distribution over the word set.
func refWordDist(m wordScorer, words [][]int) []float64 {
	return distFromLogProbs(m.LogProbWords(words, nil))
}

// refKL returns D_KL(A || B) over the word set.
func refKL(a, b wordScorer, words [][]int) float64 {
	if len(words) == 0 {
		return 0
	}
	return klEntries(newDistEntry(a.LogProbWords(words, nil)), newDistEntry(b.LogProbWords(words, nil)))
}

// refJSDivergence returns the Jensen–Shannon divergence over the word set.
func refJSDivergence(a, b wordScorer, words [][]int) float64 {
	if len(words) == 0 {
		return 0
	}
	return jsDist(refWordDist(a, words), refWordDist(b, words))
}

// refJSDistance returns sqrt(refJSDivergence).
func refJSDistance(a, b wordScorer, words [][]int) float64 {
	return math.Sqrt(refJSDivergence(a, b, words))
}

// refDistance dispatches on the metric.
func refDistance(metric Metric, a, b wordScorer, words [][]int) float64 {
	switch metric {
	case MetricJSDivergence:
		return refJSDivergence(a, b, words)
	case MetricJSDistance:
		return refJSDistance(a, b, words)
	default:
		return refKL(a, b, words)
	}
}
