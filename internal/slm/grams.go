package slm

// gramTable factors a word set by gram for models of one depth D. The
// log-probability of word w is the sum over positions i of
// ln Pr(w[i] | w[max(0,i−D):i]): each term is a function of the model and
// of the gram — the symbol plus its (at most D) predecessors — alone. A
// family's words repeat few grams (about six word positions per distinct
// gram on deep synthetic images), so a model's word log-probabilities
// derive from one query per distinct gram, summed per word in position
// order: the same addends in the same order as a per-position sum, hence
// bit-identical. Grams are also grouped by history, so a derivation walks
// the trie to each distinct history's context chain once.
type gramTable struct {
	depth int
	// grams[g] is gram g as the window of its first occurrence: its
	// history, then its symbol. Windows alias the word set.
	grams [][]int32
	// rows[off[w]:off[w+1]] are word w's gram indices in position order.
	rows []int32
	off  []int32
	// hists[h] is a distinct gram history (aliasing the word set), and
	// byHist[histOff[h]:histOff[h+1]] are the grams with that history,
	// in ascending order.
	hists   [][]int32
	byHist  []int32
	histOff []int32
}

// newGramTable interns the grams of words for models of depth depth.
// Two windows share a gram index exactly when they hold the same
// symbols, history length included (WindowTable compares lengths and
// contents), and indices follow first occurrence in word order; so do
// history indices.
func newGramTable(depth int, words [][]int32) *gramTable {
	n := 0
	for _, w := range words {
		n += len(w)
	}
	t := &gramTable{
		depth: depth,
		rows:  make([]int32, 0, n),
		off:   make([]int32, 1, len(words)+1),
	}
	// Sized below one slot pair per position: positions repeat grams
	// (see above), and the tables grow when they do not.
	ids, hids := NewWindowTable(n/4), NewWindowTable(n/8)
	var histOf []int32 // histOf[g] is gram g's history index
	for _, w := range words {
		for i := range w {
			win := w[max(0, i-depth) : i+1]
			id, isNew := ids.Intern(win)
			if isNew {
				h, _ := hids.Intern(win[:len(win)-1])
				histOf = append(histOf, h)
			}
			t.rows = append(t.rows, id)
		}
		t.off = append(t.off, int32(len(t.rows)))
	}
	t.grams, t.hists = ids.Windows(), hids.Windows()
	// Counting sort of the grams by history.
	t.histOff = make([]int32, len(t.hists)+1)
	for _, h := range histOf {
		t.histOff[h+1]++
	}
	for h := range t.hists {
		t.histOff[h+1] += t.histOff[h]
	}
	next := append([]int32(nil), t.histOff[:len(t.hists)]...)
	t.byHist = make([]int32, len(histOf))
	for g, h := range histOf {
		t.byHist[next[h]] = int32(g)
		next[h]++
	}
	return t
}
