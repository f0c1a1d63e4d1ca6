package slm

import (
	"math/bits"
	"math/rand/v2"
	"slices"
)

// windowHashSeed holds the window hash's starting state and its odd
// multipliers.
type windowHashSeed struct{ start, sym, mix uint64 }

// windowSeed is drawn once per process, the way Go maps randomize their
// hash: symbols number events taken from the analyzed binary, so a fixed
// hash would let whoever supplies the binary choose windows that all land
// in one slot. Tables copy it when made; tests swap it to check that no
// output depends on it.
var windowSeed = newWindowHashSeed()

func newWindowHashSeed() windowHashSeed {
	return windowHashSeed{rand.Uint64(), rand.Uint64() | 1, rand.Uint64() | 1}
}

// WindowTable numbers symbol windows in first-insertion order: two
// windows share an index exactly when they hold the same symbols, length
// included. It is an open-addressing table with linear probing that
// hashes a window's symbols in place and compares the whole window when
// two hashes match, kept at most half full. It stores the windows it is
// given, not copies. Not safe for concurrent use.
type WindowTable struct {
	wins [][]int32
	// slots[i] is 0 when empty, else the low 32 bits of the stored
	// window's hash above 1 + its index.
	slots []uint64
	shift uint8 // 64 − log2(len(slots)): a hash's top bits pick its slot
	seed  windowHashSeed
}

// NewWindowTable returns an empty table with room for n windows before
// it grows.
func NewWindowTable(n int) *WindowTable {
	t := &WindowTable{seed: windowSeed}
	t.Reset(n)
	return t
}

// Reset empties the table, keeping its memory where that holds n
// windows, so one table can number the windows of many sets in turn.
func (t *WindowTable) Reset(n int) {
	t.wins = t.wins[:0]
	if t.wins == nil && n > 0 {
		t.wins = make([][]int32, 0, n)
	}
	size := 1 << bits.Len(uint(max(16, 2*n)-1))
	if cap(t.slots) < size {
		t.slots = make([]uint64, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
}

// Windows returns the table's windows, each at its index; nil when the
// table is empty and was made for no windows. The slice is the table's
// own: it is valid until the next Intern or Reset.
func (t *WindowTable) Windows() [][]int32 { return t.wins }

// Intern returns w's index and whether w was new, numbering it next if
// so. The table keeps w itself, so w must not change while the table
// is in use.
func (t *WindowTable) Intern(w []int32) (int32, bool) {
	h := t.hash(w)
	tag := h << 32
	mask := len(t.slots) - 1
	i := int(h >> t.shift)
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if s := t.slots[i]; s&^0xffffffff == tag {
			if k := int32(uint32(s)) - 1; slices.Equal(t.wins[k], w) {
				return k, false
			}
		}
	}
	if 2*(len(t.wins)+1) > len(t.slots) {
		t.grow()
		mask = len(t.slots) - 1
		for i = int(h >> t.shift); t.slots[i] != 0; i = (i + 1) & mask {
		}
	}
	t.wins = append(t.wins, w)
	t.slots[i] = tag | uint64(len(t.wins))
	return int32(len(t.wins) - 1), true
}

// hash folds the length and each symbol into the state by multiply-shift,
// then folds the state's high half into its low half and multiplies once
// more, so the slot, the top bits, depends on all 64 bits of the state.
func (t *WindowTable) hash(w []int32) uint64 {
	h := t.seed.start ^ uint64(len(w))
	for _, s := range w {
		h = (h ^ uint64(uint32(s))) * t.seed.sym
	}
	h ^= h >> 32
	return h * t.seed.mix
}

// grow doubles the slots and reinserts every window in index order.
func (t *WindowTable) grow() {
	n := 2 * len(t.slots)
	t.slots = make([]uint64, n)
	t.shift--
	mask := n - 1
	for k, w := range t.wins {
		h := t.hash(w)
		i := int(h >> t.shift)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = h<<32 | uint64(k+1)
	}
}
