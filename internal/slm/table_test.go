package slm

import (
	"math"
	"math/rand"
	"testing"
)

// refLogProb is the query kernel without the querier's log tables: every
// level recounts its span under the exclusions so far and takes its own
// Log. It is the reference the table-driven Querier.LogProb must match
// bit for bit, and unlike the builder it runs on hand-built tries the
// builder cannot produce (symbol-less inner contexts).
func refLogProb(f *Frozen, sym int, hist []int) float64 {
	ctx := []int32{0}
	n := int32(0)
	for k := 1; k <= f.depth && k <= len(hist); k++ {
		c := hist[len(hist)-k]
		if c < 0 || c >= f.alphabet {
			break
		}
		if n = f.child(n, int32(c)); n < 0 {
			break
		}
		ctx = append(ctx, n)
	}
	excluded := map[int32]bool{}
	lp := 0.0
	for k := len(ctx) - 1; k >= 0; k-- {
		nd := &f.nodes[ctx[k]]
		total, distinct, symCount := 0, 0, -1
		for i := nd.symOff; i < nd.symOff+nd.symN; i++ {
			if excluded[f.syms[i]] {
				continue
			}
			total += int(f.counts[i])
			distinct++
			if int(f.syms[i]) == sym {
				symCount = int(f.counts[i])
			}
		}
		if distinct == 0 {
			continue
		}
		remaining := f.alphabet - len(excluded)
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
		lp += math.Log(float64(distinct) / denom)
		for i := nd.symOff; i < nd.symOff+nd.symN; i++ {
			excluded[f.syms[i]] = true
		}
	}
	remaining := f.alphabet - len(excluded)
	if remaining < 1 {
		remaining = 1
	}
	return lp + math.Log(1.0/float64(remaining))
}

// checkQuerier compares q (bound to f), through the per-query backoff and
// through the chain kernel, with the reference on random queries: symbols
// one past either end of the alphabet included, and histories that may
// hold out-of-alphabet symbols.
func checkQuerier(t *testing.T, label string, rng *rand.Rand, q *Querier, f *Frozen) {
	t.Helper()
	for i := 0; i < 40; i++ {
		sym := rng.Intn(f.alphabet+2) - 1
		hist := randomSeq(rng, f.alphabet, f.depth+2)
		if len(hist) > 0 && rng.Intn(4) == 0 {
			hist[rng.Intn(len(hist))] = f.alphabet + rng.Intn(3)
		}
		want := refLogProb(f, sym, hist)
		if got := q.LogProb(sym, hist); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: LogProb(%d, %v) = %v, reference %v", label, sym, hist, got, want)
		}
		if got := q.chainLogProb(int32(sym), hist); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: chain kernel (%d, %v) = %v, reference %v", label, sym, hist, got, want)
		}
	}
}

// TestQuerierTablesBitIdentical pins the table-driven first level of
// Querier.LogProb to the table-free reference and to the builder: on
// random tries, on a context holding the whole alphabet (where an
// out-of-alphabet symbol takes the ln 1e-12 return straight from the
// first level), on symbol-less contexts, and across Rebind from a large
// model to a small one and back, which shrinks and regrows the tables.
func TestQuerierTablesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		m := randomModel(rng)
		f := build(m)
		q := f.NewQuerier()
		checkQuerier(t, "random", rng, q, f)
		for i := 0; i < 10; i++ {
			sym := rng.Intn(m.Alphabet())
			hist := randomSeq(rng, m.Alphabet(), m.Depth()+2)
			sameBits(t, "random vs builder", q.LogProb(sym, hist), m.LogProb(sym, hist))
		}
	}

	full := newRef(1, 3)
	full.Train([]int{0, 1, 2, 0, 2, 1})
	ff := build(full)
	q := ff.NewQuerier()
	// wrap is 1<<32 + 1 where int has 64 bits: it must not match symbol 1
	// through a truncating conversion.
	wrap := 1 << 16
	wrap = wrap<<16 + 1
	for _, sym := range []int{-1, 0, 1, 2, 3, wrap} {
		for _, hist := range [][]int{nil, {0}, {1}, {2}, {7}} {
			sameBits(t, "full alphabet", q.LogProb(sym, hist), full.LogProb(sym, hist))
			sameBits(t, "full alphabet ref", q.LogProb(sym, hist), refLogProb(ff, sym, hist))
		}
	}
	if got := q.LogProb(3, nil); got != math.Log(1e-12) {
		t.Errorf("out-of-alphabet symbol at a full context: %v, want ln 1e-12", got)
	}

	// Untrained: the root is the only context and holds no symbol.
	empty := build(newRef(2, 5))
	checkQuerier(t, "untrained", rng, empty.NewQuerier(), empty)

	// A symbol-less root above a trained child, and a symbol-less inner
	// context: training never leaves either, but the kernel must still
	// skip them exactly as the reference does.
	hand := &Frozen{
		depth: 2, alphabet: 4, trained: 1,
		nodes: []frozenNode{
			{symOff: 0, symN: 0, childOff: 0, childN: 2},
			{symOff: 0, symN: 2, childOff: 2, childN: 1},
			{symOff: 2, symN: 0},
			{symOff: 2, symN: 4},
		},
		syms:       []int32{1, 3, 0, 1, 2, 3},
		counts:     []int32{2, 5, 1, 1, 3, 1},
		childSyms:  []int32{0, 2, 1},
		childNodes: []int32{1, 2, 3},
	}
	if err := hand.validate(); err != nil {
		t.Fatalf("hand-built trie: %v", err)
	}
	hq := hand.NewQuerier()
	checkQuerier(t, "hand-built", rng, hq, hand)
	for _, sym := range []int{-1, 0, 1, 2, 3, 4} {
		for _, hist := range [][]int{nil, {0}, {2}, {1, 0}, {1, 2}, {3, 2}} {
			if got, want := hq.LogProb(sym, hist), refLogProb(hand, sym, hist); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("hand-built: LogProb(%d, %v) = %v, reference %v", sym, hist, got, want)
			}
		}
	}

	big := newRef(3, 40)
	for n := 0; n < 30; n++ {
		big.Train(randomSeq(rng, 40, 12))
	}
	small := newRef(1, 3)
	small.Train([]int{0, 1, 0, 2})
	fb, fs := build(big), build(small)
	rq := fb.NewQuerier()
	checkQuerier(t, "large", rng, rq, fb)
	rq.Rebind(fs)
	if len(rq.lnSym) != len(fs.syms) || len(rq.lnEsc) != len(fs.nodes) {
		t.Fatalf("rebound tables sized %d/%d, want %d/%d", len(rq.lnSym), len(rq.lnEsc), len(fs.syms), len(fs.nodes))
	}
	checkQuerier(t, "large->small", rng, rq, fs)
	rq.Rebind(fb)
	checkQuerier(t, "small->large", rng, rq, fb)
}
