package snapshot

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/arborescence"
	"repro/internal/objtrace"
	"repro/internal/slm"
	"repro/internal/structural"
	"repro/internal/vtable"
)

// train returns the model of depth over [0, alphabet) trained on seqs.
func train(depth, alphabet int, seqs ...[]int) *slm.Frozen {
	var t slm.Trainer
	t.Reset(depth, alphabet)
	for _, s := range seqs {
		t.Add(s)
	}
	return t.Build()
}

// sampleSnapshot builds a fully populated snapshot by hand, exercising
// every section including the empty-vs-nil conventions the decoder
// guarantees (nil address slices for empty candidate sets, non-nil maps).
func sampleSnapshot() *Snapshot {
	ev := func(k objtrace.EventKind, n uint64) objtrace.Event { return objtrace.Event{Kind: k, N: n} }
	alphabet := []objtrace.Event{
		ev(objtrace.EvCall, 0), ev(objtrace.EvCall, 1), ev(objtrace.EvThis, 0),
		ev(objtrace.EvRet, 0), ev(objtrace.EvCallF, 0x4010),
	}
	frozen := train(2, len(alphabet), []int{0, 2, 1}, []int{0, 1, 3})

	s := &Snapshot{
		Alphabet: alphabet,
		VTables: []*vtable.VTable{
			{Addr: 0x2000, Slots: []uint64{0x4000, 0x4010}},
			{Addr: 0x2010, Slots: []uint64{0x4020}},
		},
		Tracelets: &objtrace.Result{
			PerType: map[uint64][]objtrace.Tracelet{
				0x2000: {
					objtrace.Tracelet{alphabet[0], alphabet[2]},
					objtrace.Tracelet{alphabet[1]},
				},
				0x2010: {objtrace.Tracelet{alphabet[4]}},
			},
			RawPerType: map[uint64][][]objtrace.Event{
				0x2000: {{alphabet[0], alphabet[2], alphabet[1]}},
			},
			Structs: []objtrace.ObjStruct{
				{Fn: 0x4000, EntryThis: true, Events: []objtrace.StructEvent{
					{Install: true, Off: 0, VT: 0x2000},
					{Install: false, Off: 8, Callee: 0x4020},
				}},
				{Fn: 0x4020, Events: []objtrace.StructEvent{
					{Install: true, Off: 16, VT: 0x2010},
				}},
			},
			FnVTables: map[uint64][]uint64{0x4000: {0x2000}, 0x4020: {0x2000, 0x2010}},
		},
		Structural: &structural.Result{
			Families: [][]uint64{{0x2000, 0x2010}},
			FamilyOf: map[uint64]int{0x2000: 0, 0x2010: 0},
			PossibleParents: map[uint64][]uint64{
				0x2000: nil, // candidate-free types keep nil slices
				0x2010: {0x2000},
			},
			DefinitiveParent:  map[uint64]uint64{0x2010: 0x2000},
			Purecall:          0x4fff,
			SecondaryInstalls: map[uint64][]uint64{0x2000: {0x2010}},
			InstallerOf:       map[uint64][]uint64{0x4000: {0x2000}},
		},
		Frozen: map[uint64]*slm.Frozen{0x2000: frozen, 0x2010: frozen},
		Dist: map[[2]uint64]float64{
			{0x2000, 0x2010}: 0.25,
			{0x2010, 0x2000}: 1.75,
		},
		Families: []Family{
			{Types: []uint64{0x2000, 0x2010}, Weight: 0.25, Survivors: arborescence.CoOptimal{
				Tight: [][]int{nil, {0}, {1}},
			}},
			// A multi-way structure: 0x3010 and 0x3020 each hang off the
			// root or off each other, and the binding set {2, 3} is
			// entered once.
			{Types: []uint64{0x3000, 0x3010, 0x3020}, Weight: 9.5, Survivors: arborescence.CoOptimal{
				Tight: [][]int{nil, {0}, {0, 3}, {0, 2}},
				Sets:  [][]int{{2, 3}},
			}},
		},
		Parents:      map[uint64]uint64{0x2010: 0x2000},
		MultiParents: map[uint64][]uint64{0x2010: {0x2000, 0x2010}},
		NameHash:     HashName("sample"),
		Funcs: &FnSection{
			ContextDigest: [32]byte{0xcc, 1, 2, 3},
			Funcs: []FnBundle{
				{Digest: [32]byte{0xfd, 0}, Ext: objtrace.FnExtraction{
					Entry: 0x4000,
					Segments: []objtrace.Segment{
						{VT: 0x2000, Events: []objtrace.Event{ev(objtrace.EvCall, 0), ev(objtrace.EvThis, 0)}},
						{VT: objtrace.EntryThisVT, Events: []objtrace.Event{ev(objtrace.EvRet, 0)}},
					},
					Structs: []objtrace.ObjStruct{
						{Fn: 0x4000, EntryThis: true, Events: []objtrace.StructEvent{
							{Install: true, Off: 0, VT: 0x2000},
						}},
					},
				}},
				// A function with no extraction output at all.
				{Digest: [32]byte{0xfd, 1}, Ext: objtrace.FnExtraction{Entry: 0x4010}},
			},
			TypeKeys: map[uint64][32]byte{
				0x2000: {0x7a, 0},
				0x2010: {0x7a, 1},
			},
		},
	}
	for i := range s.Key.Digest {
		s.Key.Digest[i] = byte(i)
		for sec := range s.Key.FPs {
			s.Key.FPs[sec][i] = byte(i + 1 + sec)
		}
	}
	return s
}

// TestSnapshotRoundTrip checks Encode→Decode full fidelity (DeepEqual over
// every section) and that encoding is canonical: re-encoding the decoded
// snapshot reproduces the original bytes exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip not deep-equal:\n want %+v\n got  %+v", s, got)
	}
	again, err := got.Encode()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !reflect.DeepEqual(data, again) {
		t.Fatal("re-encoding the decoded snapshot changed the bytes")
	}
}

// TestSnapshotWriteFileLoad checks the atomic write path: the file lands
// under its key-derived name, loads back deep-equal, and leaves no
// temporary droppings in the cache directory.
func TestSnapshotWriteFileLoad(t *testing.T) {
	s := sampleSnapshot()
	dir := t.TempDir()
	path := filepath.Join(dir, s.Key.FileName())
	if err := s.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatal("loaded snapshot not deep-equal to the written one")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != s.Key.FileName() {
		t.Fatalf("cache dir holds %v, want only %s", entries, s.Key.FileName())
	}
}

// TestKeyUsable walks the staged-validity chain: reuse extends exactly up
// to the first fingerprint mismatch, and an image-digest mismatch (or a
// missing snapshot) invalidates everything.
func TestKeyUsable(t *testing.T) {
	s := sampleSnapshot()
	k := s.Key
	if got := k.Usable(s); got != LevelHierarchy {
		t.Errorf("matching key: level %d, want %d", got, LevelHierarchy)
	}
	if got := k.Usable(nil); got != LevelNone {
		t.Errorf("nil snapshot: level %d, want %d", got, LevelNone)
	}
	flipDigest := k
	flipDigest.Digest[0] ^= 1
	flipFP := func(level int) Key {
		fk := k
		fk.FPs[level-1][0] ^= 1
		return fk
	}
	cases := []struct {
		name string
		k    Key
		want int
	}{
		{"digest", flipDigest, LevelNone},
		{"extract", flipFP(LevelExtraction), LevelNone},
		{"model", flipFP(LevelModels), LevelExtraction},
		{"hier", flipFP(LevelHierarchy), LevelModels},
	}
	for _, c := range cases {
		if got := c.k.Usable(s); got != c.want {
			t.Errorf("%s mismatch: level %d, want %d", c.name, got, c.want)
		}
		// MatchLevel grades the chain alone: a digest flip leaves it whole.
		want := c.want
		if c.name == "digest" {
			want = LevelHierarchy
		}
		if got := k.MatchLevel(c.k); got != want {
			t.Errorf("%s mismatch: MatchLevel %d, want %d", c.name, got, want)
		}
	}
}

// TestSectionTagsAndLevels pins the section chain: the tags are
// load-bearing snapshot-compat constants, and the sections complete the
// reuse levels in dependency order.
func TestSectionTagsAndLevels(t *testing.T) {
	for level, tag := range map[int]string{LevelExtraction: "extract", LevelModels: "model", LevelHierarchy: "hier"} {
		if Tag(level) != tag {
			t.Errorf("Tag(%d) = %q, want %q", level, Tag(level), tag)
		}
	}
	if LevelNone != 0 || LevelExtraction != 1 || LevelModels != 2 || LevelHierarchy != 3 || NumSections != 3 {
		t.Error("section levels diverged from the snapshot reuse levels")
	}
}

// TestDecodeRejectsCorruption covers the decode guards the fuzzer also
// probes: truncations (of the file, and of the payload resealed behind a
// valid checksum), bad magic, wrong version, and trailing garbage all
// error without panicking, and hostile models (operand-carrying this/ret
// events, a model alphabet other than the snapshot's, a huge declared
// depth) cannot make the first query allocate by their headers.
func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := sampleSnapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
	}
	// A truncated payload behind a valid checksum gets past the checksum,
	// so the body parser's own guards must reject every strict prefix.
	payload := data[:len(data)-sha256.Size]
	for n := 0; n < len(payload); n++ {
		if _, err := Decode(seal(payload[:n])); err == nil {
			t.Fatalf("resealed prefix of %d of %d payload bytes accepted", n, len(payload))
		}
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Any other version is turned away by the version gate even behind
	// an intact checksum, and so is its header alone.
	for _, v := range []uint32{2, Version - 1, Version + 1} {
		other := resealed(data, v)
		if _, err := Decode(other); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: Decode err = %v, want ErrVersion", v, err)
		}
		path := filepath.Join(t.TempDir(), "other.rsnap")
		if err := os.WriteFile(path, other, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadHeader(path); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: ReadHeader err = %v, want ErrVersion", v, err)
		}
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// this/ret events carry no operand; one that does is hostile input,
	// whether it sits in the alphabet or in a function bundle.
	s := sampleSnapshot()
	s.Alphabet = append(s.Alphabet, objtrace.Event{Kind: objtrace.EvThis, N: 5})
	if enc, err := s.Encode(); err != nil {
		t.Fatal(err)
	} else if _, err := Decode(enc); err == nil {
		t.Error("alphabet this event with an operand accepted")
	}
	s = sampleSnapshot()
	s.Funcs.Funcs[0].Ext.Segments[1].Events[0].N = 3 // the ret event
	if enc, err := s.Encode(); err != nil {
		t.Fatal(err)
	} else if _, err := Decode(enc); err == nil {
		t.Error("function-bundle ret event with an operand accepted")
	}
	// Every model is trained over the interned alphabet, and a querier
	// sizes its exclusion array by the model's alphabet, so a model that
	// declares another size is hostile input.
	s = sampleSnapshot()
	s.Frozen[0x2010] = train(2, len(s.Alphabet)+3, []int{0, 1})
	if enc, err := s.Encode(); err != nil {
		t.Fatal(err)
	} else if _, err := Decode(enc); err == nil {
		t.Error("model over a wider alphabet than the snapshot's accepted")
	}
	// A huge declared depth is not corrupt in itself (training stops where
	// the words end), but the first query of the decoded model must not
	// size anything by it.
	s = sampleSnapshot()
	s.Frozen[0x2010] = train(1<<24, len(s.Alphabet), []int{0, 2, 1, 3})
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("deep model rejected: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got.Frozen[0x2010].NewQuerier().LogProbSeq([]int{0, 2, 1, 3})
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
		t.Errorf("first query of a depth-2^24 model allocated %d bytes", b)
	}
	// A snapshot without a function section stays encodable and decodes
	// with Funcs nil (the presence flag, not heuristics, carries that).
	s = sampleSnapshot()
	s.Funcs = nil
	noFn, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Decode(noFn); err != nil || got.Funcs != nil {
		t.Errorf("nil-Funcs round trip: funcs=%v err=%v", got.Funcs, err)
	}
}

// TestReadHeaderV3 checks the cheap probe surfaces the v3 name hash the
// incremental auto-discovery keys on.
func TestReadHeaderV3(t *testing.T) {
	s := sampleSnapshot()
	dir := t.TempDir()
	path := filepath.Join(dir, s.Key.FileName())
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != Version || h.Key != s.Key || h.NameHash != HashName("sample") {
		t.Fatalf("header mismatch: %+v", h)
	}
	if HashName("sample") == HashName("elsewhere") {
		t.Error("distinct names share a hash")
	}
}
