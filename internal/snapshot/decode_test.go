package snapshot

import (
	"crypto/sha256"
	"math"
	"reflect"
	"testing"

	"repro/internal/objtrace"
	"repro/internal/slm"
	"repro/internal/structural"
)

// sampleVariants returns sampleSnapshot plus variants that reach every
// nil-vs-empty convention the decoder reproduces: a type with zero
// tracelets, an empty tracelet, a raw entry with no sequences, empty
// segments, struct event lists and arborescence lists, a missing function
// section, and a snapshot whose every map is empty.
func sampleVariants() []struct {
	name string
	s    *Snapshot
} {
	zeroTracelets := sampleSnapshot()
	zeroTracelets.Tracelets.PerType[0x2020] = []objtrace.Tracelet{}
	emptyTracelet := sampleSnapshot()
	emptyTracelet.Tracelets.PerType[0x2010] = append(emptyTracelet.Tracelets.PerType[0x2010], objtrace.Tracelet{})
	rawNoSeqs := sampleSnapshot()
	rawNoSeqs.Tracelets.RawPerType[0x2010] = nil
	emptyLists := sampleSnapshot()
	emptyLists.Tracelets.Structs = append(emptyLists.Tracelets.Structs, objtrace.ObjStruct{Fn: 0x4030})
	emptyLists.Families = append(emptyLists.Families, Family{Weight: 2})
	emptyLists.Funcs.Funcs[0].Ext.Segments = append(emptyLists.Funcs.Funcs[0].Ext.Segments, objtrace.Segment{VT: 0x2010})
	emptyLists.Funcs.Funcs[0].Ext.Structs = append(emptyLists.Funcs.Funcs[0].Ext.Structs, objtrace.ObjStruct{Fn: 0x4000})
	noFuncs := sampleSnapshot()
	noFuncs.Funcs = nil
	empty := &Snapshot{
		Key:       sampleSnapshot().Key,
		Tracelets: &objtrace.Result{PerType: map[uint64][]objtrace.Tracelet{}, RawPerType: map[uint64][][]objtrace.Event{}, FnVTables: map[uint64][]uint64{}},
		Structural: &structural.Result{
			FamilyOf:          map[uint64]int{},
			PossibleParents:   map[uint64][]uint64{},
			DefinitiveParent:  map[uint64]uint64{},
			SecondaryInstalls: map[uint64][]uint64{},
			InstallerOf:       map[uint64][]uint64{},
		},
		Frozen:       map[uint64]*slm.Frozen{},
		Dist:         map[[2]uint64]float64{},
		Parents:      map[uint64]uint64{},
		MultiParents: map[uint64][]uint64{},
		Funcs:        &FnSection{TypeKeys: map[uint64][32]byte{}},
	}
	return []struct {
		name string
		s    *Snapshot
	}{
		{"sample", sampleSnapshot()},
		{"type with zero tracelets", zeroTracelets},
		{"empty tracelet", emptyTracelet},
		{"raw entry with no sequences", rawNoSeqs},
		{"empty segment, struct and arborescence lists", emptyLists},
		{"nil Funcs", noFuncs},
		{"empty maps", empty},
	}
}

// TestDecodeMatchesReference checks the arena decoder against the
// reference decoder on every sample variant (matchReference).
func TestDecodeMatchesReference(t *testing.T) {
	for _, v := range sampleVariants() {
		data, err := v.s.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", v.name, err)
		}
		matchReference(t, v.name, data)
	}
}

// matchReference requires Decode and refDecode to accept data with
// reflect.DeepEqual results (nil-vs-empty slices included), Decode's
// sequences to be capped windows, and Encode to reproduce data from
// Decode's result into a buffer sized exactly (encodedSize), leaving no
// spare capacity.
func matchReference(t *testing.T, name string, data []byte) {
	t.Helper()
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	want, err := refDecode(data)
	if err != nil {
		t.Fatalf("%s: reference decode: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Decode and the reference decoder disagree", name)
	}
	// Sequences share their section's arena; each must be capped at its
	// length so that an append can never overwrite the next.
	for _, tls := range got.Tracelets.PerType {
		for _, tl := range tls {
			if cap(tl) != len(tl) {
				t.Fatalf("%s: tracelet cap %d for %d events", name, cap(tl), len(tl))
			}
		}
	}
	for _, seqs := range got.Tracelets.RawPerType {
		for _, seq := range seqs {
			if cap(seq) != len(seq) {
				t.Fatalf("%s: raw sequence cap %d for %d events", name, cap(seq), len(seq))
			}
		}
	}
	again, err := got.Encode()
	if err != nil {
		t.Fatalf("%s: re-encode: %v", name, err)
	}
	if string(again) != string(data) {
		t.Fatalf("%s: re-encoding the decoded snapshot changed the bytes", name)
	}
	if cap(again) != len(again) {
		t.Errorf("%s: Encode buffer cap %d for %d bytes", name, cap(again), len(again))
	}
}

// sameDecode reports whether two decoded snapshots are reflect.DeepEqual
// once their float fields are compared by bit pattern, so a NaN distance
// or weight (which DeepEqual never equates with itself) still matches.
func sameDecode(a, b *Snapshot) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Dist) != len(b.Dist) || len(a.Families) != len(b.Families) {
		return false
	}
	for k, v := range a.Dist {
		w, ok := b.Dist[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	ac, bc := *a, *b
	ac.Dist, bc.Dist = nil, nil
	ac.Families = append([]Family(nil), a.Families...)
	bc.Families = append([]Family(nil), b.Families...)
	for i := range ac.Families {
		if math.Float64bits(ac.Families[i].Weight) != math.Float64bits(bc.Families[i].Weight) {
			return false
		}
		ac.Families[i].Weight, bc.Families[i].Weight = 0, 0
	}
	return reflect.DeepEqual(&ac, &bc)
}

// agreeWithReference requires Decode and refDecode to reach the same
// verdict on data, and equal snapshots when they accept; whatever Decode
// accepts must re-encode.
func agreeWithReference(t *testing.T, data []byte) {
	t.Helper()
	got, err := Decode(data)
	want, refErr := refDecode(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Decode err = %v, reference err = %v", err, refErr)
	}
	if err != nil {
		return
	}
	if !sameDecode(got, want) {
		t.Fatal("Decode and the reference decoder disagree")
	}
	if _, err := got.Encode(); err != nil {
		t.Fatalf("decoded snapshot fails to re-encode: %v", err)
	}
}

// seal returns payload followed by its SHA-256 checksum: a file that
// passes the checksum, so the decoder parses its body.
func seal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(append([]byte(nil), payload...), sum[:]...)
}

// TestDecodeAllocsIndependentOfEvents pins the arena decode: scaling the
// sample's tracelets, raw sequences and function-bundle events by 8 adds
// no allocation, because every sequence is a window of its section's one
// arena and every other slice is allocated once at its decoded length.
func TestDecodeAllocsIndependentOfEvents(t *testing.T) {
	base := sampleSnapshot()
	scaled := sampleSnapshot()
	for typ, tls := range scaled.Tracelets.PerType {
		scaled.Tracelets.PerType[typ] = repeat(tls, 8)
	}
	for typ, seqs := range scaled.Tracelets.RawPerType {
		scaled.Tracelets.RawPerType[typ] = repeat(seqs, 8)
	}
	for i := range scaled.Funcs.Funcs {
		segs := scaled.Funcs.Funcs[i].Ext.Segments
		for j := range segs {
			segs[j].Events = repeat(segs[j].Events, 8)
		}
	}
	allocs := func(s *Snapshot) float64 {
		data, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := Decode(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(base), allocs(scaled); a != b {
		t.Fatalf("Decode allocations: %v for the sample, %v with 8x its sequences and events", a, b)
	}
}

// repeat returns k concatenated copies of s.
func repeat[T any](s []T, k int) []T {
	out := make([]T, 0, k*len(s))
	for range k {
		out = append(out, s...)
	}
	return out
}
