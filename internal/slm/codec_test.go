package slm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomFrozen trains a model on a pseudorandom corpus.
// The corpus is seeded, so failures reproduce.
func randomFrozen(rng *rand.Rand, depth, alphabet, words, wordLen int) (*Frozen, [][]int) {
	m := newRef(depth, alphabet)
	corpus := make([][]int, words)
	for i := range corpus {
		w := make([]int, wordLen)
		for j := range w {
			w[j] = rng.Intn(alphabet)
		}
		corpus[i] = w
		m.Train(w)
	}
	return build(m), corpus
}

// TestFrozenCodecRoundTrip is the satellite property test: for a spread of
// model shapes, encode→decode must reproduce the frozen trie bit-identically
// (reflect.DeepEqual over the full arena representation), consume exactly
// EncodedSize bytes, and answer queries identically to the original.
func TestFrozenCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ depth, alphabet, words, wordLen int }{
		{0, 1, 1, 1},
		{1, 2, 4, 3},
		{2, 5, 16, 7},
		{2, 24, 128, 7},
		{3, 13, 64, 9},
		{4, 40, 256, 11},
	}
	for _, sh := range shapes {
		f, corpus := randomFrozen(rng, sh.depth, sh.alphabet, sh.words, sh.wordLen)
		enc := f.AppendBinary(nil)
		if len(enc) != f.EncodedSize() {
			t.Errorf("depth=%d alpha=%d: encoded %d bytes, EncodedSize says %d",
				sh.depth, sh.alphabet, len(enc), f.EncodedSize())
		}
		// A non-empty tail must be handed back untouched.
		tail := []byte{0xde, 0xad, 0xbe, 0xef}
		dec, rest, err := DecodeFrozen(append(append([]byte(nil), enc...), tail...), sh.alphabet)
		if err != nil {
			t.Fatalf("depth=%d alpha=%d: decode: %v", sh.depth, sh.alphabet, err)
		}
		if !reflect.DeepEqual(rest, tail) {
			t.Fatalf("depth=%d alpha=%d: remainder %v, want %v", sh.depth, sh.alphabet, rest, tail)
		}
		if !reflect.DeepEqual(f, dec) {
			t.Fatalf("depth=%d alpha=%d: decoded trie is not bit-identical", sh.depth, sh.alphabet)
		}
		// The four arenas share one allocation; each must be capped at its
		// length so that growing one can never overwrite the next.
		for _, a := range [][]int32{dec.syms, dec.counts, dec.childSyms, dec.childNodes} {
			if cap(a) != len(a) {
				t.Fatalf("depth=%d alpha=%d: decoded arena cap %d for %d elements", sh.depth, sh.alphabet, cap(a), len(a))
			}
		}
		// DeepEqual already implies this, but the query path is the property
		// that matters downstream: spot-check it directly.
		q, dq := f.NewQuerier(), dec.NewQuerier()
		for _, w := range corpus[:min(len(corpus), 16)] {
			if a, b := q.LogProbSeq(w), dq.LogProbSeq(w); a != b {
				t.Fatalf("depth=%d alpha=%d: LogProbSeq diverged: %v vs %v", sh.depth, sh.alphabet, a, b)
			}
		}
	}
}

// TestDecodeFrozenRejectsTruncation feeds every proper prefix of a valid
// encoding to the decoder: all must error, none may panic.
func TestDecodeFrozenRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f, _ := randomFrozen(rng, 2, 10, 32, 7)
	enc := f.AppendBinary(nil)
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeFrozen(enc[:n], f.alphabet); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(enc))
		}
	}
}

// TestDecodeFrozenRejectsCorruption flips each byte of a valid encoding in
// turn. The decoder must never panic; structural corruption must be caught
// by validation (a flip inside a count or arena may still decode — but then
// it decoded into a trie whose invariants all hold, which is safe, and a
// trie with corrupted counts still scores every word finitely).
func TestDecodeFrozenRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f, corpus := randomFrozen(rng, 2, 10, 32, 7)
	enc := f.AppendBinary(nil)
	countsAt := frozenHeaderSize + 20*len(f.nodes) + 4*len(f.syms)
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x41
		dec, _, err := DecodeFrozen(mut, f.alphabet)
		if err != nil {
			continue
		}
		// Accepted: the decoded trie must still satisfy every invariant the
		// query kernel relies on, so querying it cannot fault.
		if verr := dec.validate(); verr != nil {
			t.Fatalf("byte %d: decoder accepted a trie that fails validation: %v", i, verr)
		}
		if i < countsAt || i >= countsAt+4*len(f.counts) {
			continue
		}
		q := dec.NewQuerier()
		for _, w := range corpus {
			if lp := q.LogProbSeq(w); math.IsInf(lp, 0) || math.IsNaN(lp) {
				t.Fatalf("byte %d: accepted trie scores %v as %v", i, w, lp)
			}
		}
	}
	// Training never stores a zero count, so a decoded one is corruption
	// (it would put ln 0 or 0/0 into the querier's log tables). A symbol
	// span that does not start where the previous node's ended is too:
	// each table slot needs one owning node.
	for i := range f.counts {
		mut := append([]byte(nil), enc...)
		copy(mut[countsAt+4*i:], []byte{0, 0, 0, 0})
		if _, _, err := DecodeFrozen(mut, f.alphabet); err == nil {
			t.Fatalf("zero count in slot %d accepted", i)
		}
	}
	for n := 1; n < len(f.nodes); n++ {
		mut := append([]byte(nil), enc...)
		mut[frozenHeaderSize+20*n]++ // node n's symOff
		if _, _, err := DecodeFrozen(mut, f.alphabet); err == nil {
			t.Fatalf("node %d: shifted symbol span accepted", n)
		}
	}
	// Header-level corruption that must be rejected outright.
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, _, err := DecodeFrozen(bad, f.alphabet); err == nil {
		t.Error("bad magic accepted")
	}
	// A huge node count must fail the size check, not allocate.
	huge := append([]byte(nil), enc...)
	huge[16], huge[17], huge[18], huge[19] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := DecodeFrozen(huge, f.alphabet); err == nil {
		t.Error("oversized node count accepted")
	}
	// A querier sizes its exclusion array by the alphabet, so a declared
	// alphabet other than the caller's — here 2^31-1 — is rejected before
	// anything is sized by it.
	wide := append([]byte(nil), enc...)
	wide[8], wide[9], wide[10], wide[11] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := DecodeFrozen(wide, f.alphabet); err == nil {
		t.Error("declared alphabet 2^31-1 accepted for a 10-symbol table")
	}
	if _, _, err := DecodeFrozen(enc, f.alphabet+1); err == nil {
		t.Error("alphabet mismatch accepted")
	}
	// A declared depth of 2^31-1 describes a valid trie (training stops
	// where the words end), but the first query must not size anything by
	// it: the context stack grows only as deep as the trie walk goes.
	deep := append([]byte(nil), enc...)
	deep[4], deep[5], deep[6], deep[7] = 0xff, 0xff, 0xff, 0x7f
	dec, _, err := DecodeFrozen(deep, f.alphabet)
	if err != nil {
		t.Fatalf("deep trie rejected: %v", err)
	}
	q := dec.NewQuerier()
	for _, w := range corpus {
		q.LogProbSeq(w)
	}
	if c := cap(q.ctx); c > len(dec.nodes)+1 {
		t.Errorf("context stack capacity %d for a %d-node trie", c, len(dec.nodes))
	}
}
