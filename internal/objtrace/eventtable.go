package objtrace

import (
	"math/bits"
	"math/rand/v2"
)

// eventHashSeed holds the event hash's odd multipliers.
type eventHashSeed struct{ n, kind, mix uint64 }

// eventSeed is drawn once per process, the way Go maps randomize their
// hash: event operands are call targets and field offsets taken from the
// analyzed binary, so a fixed hash would let whoever supplies the binary
// choose events that all land in one slot. Tables copy it when made;
// tests swap it to check that no output depends on it.
var eventSeed = newEventHashSeed()

func newEventHashSeed() eventHashSeed {
	return eventHashSeed{rand.Uint64() | 1, rand.Uint64() | 1, rand.Uint64() | 1}
}

// EventTable numbers events in first-insertion order: the alphabet that
// maps each distinct event to its symbol. It is an open-addressing table
// with linear probing that hashes an event's kind and operand in place
// and compares the whole event on a slot match, kept at most half full.
// Not safe for concurrent use.
type EventTable struct {
	events []Event
	// slots[i] is 1 + the symbol of the event stored there, 0 when empty.
	slots []int32
	shift uint8 // 64 − log2(len(slots)): a hash's top bits pick its slot
	seed  eventHashSeed
}

// NewEventTable returns a table numbering alphabet's events by position.
// Each event must be listed once; a repeat keeps its first symbol and the
// table is shorter than alphabet.
func NewEventTable(alphabet []Event) *EventTable {
	t := &EventTable{events: make([]Event, 0, len(alphabet)), seed: eventSeed}
	t.resize(1 << bits.Len(uint(max(16, 2*len(alphabet))-1)))
	for _, e := range alphabet {
		t.Intern(e)
	}
	return t
}

// Len returns the number of distinct events in the table.
func (t *EventTable) Len() int { return len(t.events) }

// Events returns the table's events, each at its symbol. The slice is the
// table's own: it is valid until the next Intern.
func (t *EventTable) Events() []Event { return t.events }

// Lookup returns e's symbol, and false when e is not in the table.
func (t *EventTable) Lookup(e Event) (int32, bool) {
	_, s := t.find(e)
	return s - 1, s != 0
}

// Intern returns e's symbol, numbering e next when it is new.
func (t *EventTable) Intern(e Event) int32 {
	i, s := t.find(e)
	if s != 0 {
		return s - 1
	}
	if 2*(len(t.events)+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
		i, _ = t.find(e)
	}
	t.events = append(t.events, e)
	t.slots[i] = int32(len(t.events))
	return int32(len(t.events) - 1)
}

// find returns the slot holding e and its entry, or the empty slot where
// e belongs and 0.
func (t *EventTable) find(e Event) (int, int32) {
	mask := len(t.slots) - 1
	for i := int(t.hash(e) >> t.shift); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 || t.events[s-1] == e {
			return i, s
		}
	}
}

// hash mixes e's operand and kind by multiply-shift. Folding the
// product's high half into its low half before a second multiply makes
// the slot, the top bits, depend on all 64 bits of the product.
func (t *EventTable) hash(e Event) uint64 {
	h := e.N*t.seed.n + uint64(e.Kind)*t.seed.kind
	h ^= h >> 32
	return h * t.seed.mix
}

// resize reallocates the slots at n, a power of two, and reinserts every
// event in symbol order.
func (t *EventTable) resize(n int) {
	t.slots = make([]int32, n)
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for k, e := range t.events {
		i := int(t.hash(e) >> t.shift)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(k + 1)
	}
}
