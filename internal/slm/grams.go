package slm

import "encoding/binary"

// gramTable factors a word set by gram for models of one depth D. The
// term Querier.LogProbSeq adds for position i of word w is
// LogProb(w[i], w[max(0,i−D):i]): a function of the model and of the
// gram — the symbol plus its (at most D) predecessors — alone. A family's
// words repeat few grams (about six word positions per distinct gram on
// deep synthetic images), so a model's word log-probabilities derive from
// one LogProb per distinct gram, summed per word in position order: the
// same addends in the same order as LogProbSeq, hence bit-identical.
type gramTable struct {
	depth int
	// grams[g] is gram g as the window of its first occurrence: its
	// history, then its symbol. Windows alias the word set.
	grams [][]int
	// rows[off[w]:off[w+1]] are word w's gram indices in position order.
	rows []int32
	off  []int32
}

// newGramTable interns the grams of words for models of depth depth.
// Two windows share a gram index exactly when they hold the same
// symbols, history length included (the key is the window's varints,
// which decode uniquely).
func newGramTable(depth int, words [][]int) *gramTable {
	n := 0
	for _, w := range words {
		n += len(w)
	}
	t := &gramTable{
		depth: depth,
		rows:  make([]int32, 0, n),
		off:   make([]int32, 1, len(words)+1),
	}
	ids := make(map[string]int32)
	var key []byte
	for _, w := range words {
		for i := range w {
			win := w[max(0, i-depth) : i+1]
			key = key[:0]
			for _, s := range win {
				key = binary.AppendVarint(key, int64(s))
			}
			id, ok := ids[string(key)]
			if !ok {
				id = int32(len(t.grams))
				ids[string(key)] = id
				t.grams = append(t.grams, win)
			}
			t.rows = append(t.rows, id)
		}
		t.off = append(t.off, int32(len(t.rows)))
	}
	return t
}
