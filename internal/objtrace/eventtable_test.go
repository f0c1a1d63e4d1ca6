package objtrace

import (
	"math/rand"
	"reflect"
	"testing"
)

// refIntern numbers alphabet's events by position, then interns events
// one at a time through a Go map keyed by the padding-free [2]uint64
// {Kind, N} — the interning the event table replaced, kept as its
// oracle. It returns the grown alphabet and each event's symbol.
func refIntern(alphabet, events []Event) ([]Event, []int32) {
	key := func(e Event) [2]uint64 { return [2]uint64{uint64(e.Kind), e.N} }
	alpha := append([]Event(nil), alphabet...)
	idx := make(map[[2]uint64]int32, len(alpha))
	for i, e := range alpha {
		idx[key(e)] = int32(i)
	}
	syms := make([]int32, len(events))
	for i, e := range events {
		s, ok := idx[key(e)]
		if !ok {
			s = int32(len(alpha))
			idx[key(e)] = s
			alpha = append(alpha, e)
		}
		syms[i] = s
	}
	return alpha, syms
}

// tableIntern is refIntern through an EventTable.
func tableIntern(alphabet, events []Event) ([]Event, []int32) {
	tab := NewEventTable(alphabet)
	syms := make([]int32, len(events))
	for i, e := range events {
		syms[i] = tab.Intern(e)
	}
	return tab.Events(), syms
}

// randomEvents draws n events over every kind, with operands small,
// large, and differing only in their high bits, plus repeats.
func randomEvents(rng *rand.Rand, n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		e := Event{Kind: EventKind(rng.Intn(int(EvCallF) + 1))}
		switch rng.Intn(4) {
		case 0:
			e.N = uint64(rng.Intn(16))
		case 1:
			e.N = rng.Uint64()
		case 2:
			e.N = uint64(rng.Intn(1<<16)) << 40
		default:
			if i > 0 {
				e = evs[rng.Intn(i)]
			}
		}
		evs[i] = e
	}
	return evs
}

// TestEventTableMatchesMap pins the event table to the map interning on
// random events, from an empty alphabet and from a prior one, across
// growth (up to a 70,000-event alphabet): the same symbols, the same
// alphabet in the same order, and Lookup finds exactly the interned
// events.
func TestEventTableMatchesMap(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3000)
		if seed == 0 {
			n = 200000
		}
		events := randomEvents(rng, n)
		prior, _ := refIntern(nil, randomEvents(rng, rng.Intn(200)))
		if seed%2 == 0 {
			prior = nil
		}
		wantAlpha, wantSyms := refIntern(prior, events)
		gotAlpha, gotSyms := tableIntern(prior, events)
		if !reflect.DeepEqual(gotSyms, wantSyms) {
			t.Fatalf("seed %d: symbols differ from the map interning", seed)
		}
		if !reflect.DeepEqual(gotAlpha, wantAlpha) {
			t.Fatalf("seed %d: alphabet differs from the map interning", seed)
		}
		if seed == 0 && len(gotAlpha) < 70000 {
			t.Fatalf("seed 0: alphabet of %d events, want at least 70,000", len(gotAlpha))
		}
		tab := NewEventTable(wantAlpha)
		for i, e := range wantAlpha {
			if s, ok := tab.Lookup(e); !ok || s != int32(i) {
				t.Fatalf("seed %d: Lookup(%v) = %d, %v; want %d", seed, e, s, ok, i)
			}
		}
		listed := make(map[Event]bool, len(wantAlpha))
		for _, e := range wantAlpha {
			listed[e] = true
		}
		for _, e := range randomEvents(rng, 100) {
			if _, ok := tab.Lookup(e); ok != listed[e] {
				t.Fatalf("seed %d: Lookup(%v) found = %v, want %v", seed, e, ok, listed[e])
			}
		}
		if tab.Len() != len(wantAlpha) {
			t.Fatalf("seed %d: table of %d events, want %d", seed, tab.Len(), len(wantAlpha))
		}
	}
}

// TestEventTableSeedIndependent interns the same events under two hash
// seeds: the symbols and the alphabet must not depend on the seed.
func TestEventTableSeedIndependent(t *testing.T) {
	defer func(s eventHashSeed) { eventSeed = s }(eventSeed)
	rng := rand.New(rand.NewSource(7))
	events := randomEvents(rng, 20000)
	prior := randomEvents(rng, 50)
	prior, _ = refIntern(nil, prior)
	eventSeed = eventHashSeed{n: 1, kind: 1, mix: 1}
	alphaA, symsA := tableIntern(prior, events)
	eventSeed = newEventHashSeed()
	alphaB, symsB := tableIntern(prior, events)
	if !reflect.DeepEqual(alphaA, alphaB) || !reflect.DeepEqual(symsA, symsB) {
		t.Fatal("interning depends on the hash seed")
	}
}

// meanProbe returns the mean number of slots a successful Lookup visits
// over the table's events.
func meanProbe(tab *EventTable) float64 {
	mask := len(tab.slots) - 1
	total := 0
	for i, s := range tab.slots {
		if s != 0 {
			home := int(tab.hash(tab.events[s-1]) >> tab.shift)
			total += (i-home)&mask + 1
		}
	}
	return float64(total) / float64(tab.Len())
}

// TestEventTableHostileKeys: 2^16 operands that differ only above bit
// 40 — all in one slot under any hash of the operand's low bits — keep
// the mean probe short under every seed tried, and the table holds at
// most 4 slots per event.
func TestEventTableHostileKeys(t *testing.T) {
	defer func(s eventHashSeed) { eventSeed = s }(eventSeed)
	for try := 0; try < 8; try++ {
		eventSeed = newEventHashSeed()
		tab := NewEventTable(nil)
		for i := uint64(0); i < 1<<16; i++ {
			tab.Intern(Event{Kind: EvCallF, N: i << 40})
		}
		if tab.Len() != 1<<16 {
			t.Fatalf("%d events interned, want %d", tab.Len(), 1<<16)
		}
		if p := meanProbe(tab); p > 3 {
			t.Errorf("seed %+v: mean probe length %.2f, want at most 3", eventSeed, p)
		}
		if len(tab.slots) > 4*tab.Len() {
			t.Errorf("%d slots for %d events, want at most 4 per event", len(tab.slots), tab.Len())
		}
	}
}
