package slm

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomWindows draws n windows over [−alpha/2, alpha): empty ones,
// lengths up to maxLen, and repeats of earlier windows.
func randomWindows(rng *rand.Rand, n, alpha, maxLen int) [][]int32 {
	wins := make([][]int32, n)
	for i := range wins {
		if i > 0 && rng.Intn(3) == 0 {
			wins[i] = slices.Clone(wins[rng.Intn(i)])
			continue
		}
		w := make([]int32, rng.Intn(maxLen+1))
		for j := range w {
			w[j] = int32(rng.Intn(alpha+alpha/2) - alpha/2)
		}
		wins[i] = w
	}
	return wins
}

// tableWindowIDs is refWindowIDs through t, reset for len(wins) windows.
func tableWindowIDs(t *WindowTable, wins [][]int32) ([]int32, [][]int32) {
	t.Reset(len(wins))
	ids := make([]int32, len(wins))
	for i, w := range wins {
		before := len(t.wins)
		id, added := t.Intern(w)
		grown := len(t.wins) - before
		if added != (int(id) == before) || added != (grown == 1) || grown > 1 {
			return nil, nil
		}
		ids[i] = id
	}
	return ids, t.Windows()
}

// sameGrams reports whether two gram tables hold the same grams, rows and
// row offsets.
func sameGrams(a, b *gramTable) bool {
	return a.depth == b.depth && reflect.DeepEqual(a.grams, b.grams) &&
		slices.Equal(a.rows, b.rows) && slices.Equal(a.off, b.off)
}

// TestWindowTableMatchesMap pins WindowTable to the fixed-width map keys
// on random window sets — empty windows, mixed lengths, repeats, negative
// symbols, and a 70,000-symbol alphabet — numbered one after another
// through one reset table, as core numbers each type's words: the same
// index for every window, the same distinct windows in the same order,
// and added exactly on first occurrence.
func TestWindowTableMatchesMap(t *testing.T) {
	tab := NewWindowTable(0)
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		alpha, maxLen := 1+rng.Intn(12), rng.Intn(10)
		n := rng.Intn(400)
		if seed%5 == 0 {
			alpha, n = 70000, 20000
		}
		wins := randomWindows(rng, n, alpha, maxLen)
		wantIDs, wantWins := refWindowIDs(wins)
		gotIDs, gotWins := tableWindowIDs(tab, wins)
		if gotIDs == nil {
			t.Fatalf("seed %d: Intern reported added on a repeat, or not on a first occurrence", seed)
		}
		if !slices.Equal(gotIDs, wantIDs) || len(gotWins) != len(wantWins) {
			t.Fatalf("seed %d: window indices differ from the map interning", seed)
		}
		for i := range wantWins {
			if !slices.Equal(gotWins[i], wantWins[i]) {
				t.Fatalf("seed %d: window %d is %v, want %v", seed, i, gotWins[i], wantWins[i])
			}
		}
	}
}

// TestGramTableMatchesVarintReference pins the gram interning to the
// varint-keyed map it replaced on random word sets at depths 0–3 and over
// a 70,000-symbol alphabet: the same grams in the same order, rows and
// offsets.
func TestGramTableMatchesVarintReference(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		alpha := 1 + rng.Intn(12)
		words := words32(gramWords(rng, alpha))
		if seed%5 == 0 {
			words = randomWindows(rng, 5000, 70000, 8)
		}
		depth := int(seed % 4)
		if !sameGrams(newGramTable(depth, words), refGramTable(depth, words)) {
			t.Fatalf("seed %d depth %d: gram table differs from the varint reference", seed, depth)
		}
	}
}

// TestWindowTableSeedIndependent runs the same window sets and gram
// tables under two hash seeds, one of them degenerate: the results must
// be deep-equal.
func TestWindowTableSeedIndependent(t *testing.T) {
	defer func(s windowHashSeed) { windowSeed = s }(windowSeed)
	rng := rand.New(rand.NewSource(11))
	wins := randomWindows(rng, 5000, 300, 7)
	run := func() ([]int32, [][]int32, *gramTable) {
		ids, distinct := tableWindowIDs(NewWindowTable(0), wins)
		return ids, slices.Clone(distinct), newGramTable(2, wins)
	}
	windowSeed = windowHashSeed{start: 0, sym: 1, mix: 1}
	idsA, winsA, gramsA := run()
	windowSeed = newWindowHashSeed()
	idsB, winsB, gramsB := run()
	if !slices.Equal(idsA, idsB) || !reflect.DeepEqual(winsA, winsB) || !sameGrams(gramsA, gramsB) {
		t.Fatal("window interning depends on the hash seed")
	}
}

// TestWindowTableHostileKeys: 2^16 windows that differ only in the high
// bits of one symbol — all in one slot under any hash of the symbols' low
// bits — keep the mean probe short under every seed tried, whether the
// differing symbol leads, trails or sits inside the window, and the
// table holds at most 4 slots per window.
func TestWindowTableHostileKeys(t *testing.T) {
	defer func(s windowHashSeed) { windowSeed = s }(windowSeed)
	for try := 0; try < 4; try++ {
		windowSeed = newWindowHashSeed()
		for pos := 0; pos < 3; pos++ {
			tab := NewWindowTable(0)
			for i := uint32(0); i < 1<<16; i++ {
				w := []int32{5, 9, 13}
				w[pos] = int32(i << 15)
				tab.Intern(w)
			}
			if len(tab.wins) != 1<<16 {
				t.Fatalf("%d windows interned, want %d", len(tab.wins), 1<<16)
			}
			mask := len(tab.slots) - 1
			total := 0
			for i, s := range tab.slots {
				if s != 0 {
					home := int(tab.hash(tab.wins[uint32(s)-1]) >> tab.shift)
					total += (i-home)&mask + 1
				}
			}
			if p := float64(total) / float64(len(tab.wins)); p > 3 {
				t.Errorf("seed %+v, position %d: mean probe length %.2f, want at most 3", windowSeed, pos, p)
			}
			if len(tab.slots) > 4*len(tab.wins) {
				t.Errorf("%d slots for %d windows, want at most 4 per window", len(tab.slots), len(tab.wins))
			}
		}
	}
}
