package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/image"
	"repro/internal/objtrace"
)

// refSymbols maps each event of r's alphabet to its symbol: the per-event
// lookup the encoded tracelet table replaced, kept as the tests' oracle.
func refSymbols(r *Result) map[objtrace.Event]int32 {
	sym := make(map[objtrace.Event]int32, len(r.Alphabet))
	for i, e := range r.Alphabet {
		sym[e] = int32(i)
	}
	return sym
}

// refEncode encodes tl one event lookup at a time.
func refEncode(sym map[objtrace.Event]int32, tl objtrace.Tracelet) []int32 {
	w := make([]int32, len(tl))
	for i, e := range tl {
		w[i] = sym[e]
	}
	return w
}

// refTypeKeys digests every type's training input as computeTypeKeys did
// before the table: one symbol lookup and one hash write per event.
func refTypeKeys(r *Result) map[uint64][32]byte {
	sym := refSymbols(r)
	out := make(map[uint64][32]byte, len(r.VTables))
	var b [8]byte
	for _, v := range r.VTables {
		h := sha256.New()
		h.Write([]byte("rocktk\x00"))
		binary.LittleEndian.PutUint64(b[:], uint64(len(r.Alphabet)))
		h.Write(b[:])
		for _, tl := range r.Tracelets.PerType[v.Addr] {
			binary.LittleEndian.PutUint64(b[:], uint64(len(tl)))
			h.Write(b[:])
			for _, e := range tl {
				binary.LittleEndian.PutUint64(b[:], uint64(sym[e]))
				h.Write(b[:])
			}
		}
		var k [32]byte
		h.Sum(k[:0])
		out[v.Addr] = k
	}
	return out
}

// refEncodeTable is encodeTracelets as it interned events before the
// event table: through a Go map keyed by the padding-free [2]uint64
// {Kind, N}, starting from an empty alphabet. It returns the alphabet and
// every type's encoded tracelets.
func refEncodeTable(r *Result) ([]objtrace.Event, map[uint64]encoded) {
	types := make([]uint64, 0, len(r.Tracelets.PerType))
	for t := range r.Tracelets.PerType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	var alphabet []objtrace.Event
	idx := map[[2]uint64]int32{}
	enc := make(map[uint64]encoded, len(types))
	for _, t := range types {
		var e encoded
		for _, tl := range r.Tracelets.PerType[t] {
			for _, ev := range tl {
				k := [2]uint64{uint64(ev.Kind), ev.N}
				s, ok := idx[k]
				if !ok {
					s = int32(len(alphabet))
					idx[k] = s
					alphabet = append(alphabet, ev)
				}
				e.syms = append(e.syms, s)
			}
			e.ends = append(e.ends, int32(len(e.syms)))
		}
		enc[t] = e
	}
	return alphabet, enc
}

// appendWordKey appends the fixed-width map key core deduplicated encoded
// words by before the window table: one little-endian uint32 per symbol.
func appendWordKey(dst []byte, w []int32) []byte {
	for _, s := range w {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s))
	}
	return dst
}

// refWordSet is buildWordsFor's dedup of one type's encoded tracelets
// through a Go map on appendWordKey.
func refWordSet(e encoded) wordSet {
	seen := map[string]int{}
	var ws wordSet
	var key []byte
	start := int32(0)
	for _, end := range e.ends {
		w := e.syms[start:end:end]
		start = end
		key = appendWordKey(key[:0], w)
		if i, ok := seen[string(key)]; ok {
			ws.counts[i]++
			continue
		}
		seen[string(key)] = len(ws.words)
		ws.words = append(ws.words, w)
		ws.counts = append(ws.counts, 1)
	}
	return ws
}

// refFamilyWords is familyWords' union through a Go map on appendWordKey.
func refFamilyWords(r *Result, fam []uint64) [][]int32 {
	seen := map[string]bool{}
	var words [][]int32
	var key []byte
	for _, t := range fam {
		for _, w := range r.words[t].words {
			key = appendWordKey(key[:0], w)
			if !seen[string(key)] {
				seen[string(key)] = true
				words = append(words, w)
			}
		}
	}
	return words
}

// TestInterningMatchesMapReference pins the event and window tables to
// the Go-map interning they replaced: the alphabet and encoded table, every
// type's word set (order and multiplicities) and every family's word
// union order are deep-equal to the references', on the Table 2 images,
// the synth grid, the four rockperf-shaped deep programs, and a patched
// deep/opt image on the incremental lane.
func TestInterningMatchesMapReference(t *testing.T) {
	check := func(label string, res *Result) {
		t.Helper()
		alphabet, enc := refEncodeTable(res)
		if !reflect.DeepEqual(res.Alphabet, alphabet) {
			t.Fatalf("%s: alphabet differs from the map interning", label)
		}
		if !reflect.DeepEqual(res.enc, enc) {
			t.Fatalf("%s: encoded table differs from the map interning", label)
		}
		for _, fam := range res.Structural.Families {
			got := res.FamilyWords(fam)
			for _, ty := range fam {
				if !reflect.DeepEqual(res.words[ty], refWordSet(res.enc[ty])) {
					t.Fatalf("%s: type %#x: word set differs from the map dedup", label, ty)
				}
			}
			if !reflect.DeepEqual(got, refFamilyWords(res, fam)) {
				t.Fatalf("%s: family %#x: word union differs from the map dedup", label, fam)
			}
		}
	}
	var imgs []*image.Image
	var names []string
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		imgs, names = append(imgs, img), append(names, b.Name)
	}
	for _, c := range bench.SynthGrid() {
		img, _, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		imgs, names = append(imgs, img), append(names, c.Name)
	}
	for i, img := range deepImages(t, 4) {
		imgs, names = append(imgs, img), append(names, fmt.Sprintf("deep program %d", i))
	}
	for i, img := range imgs {
		check(names[i], analyzeCached(t, img, DefaultConfig()))
	}

	img, cands := synthPatchable(t)
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	analyzeCached(t, img, cfg)
	incr := analyzeCached(t, patchedCopy(t, img, cands, 1), cfg)
	if st := incr.Incremental; st == nil || st.TypesRetrained == 0 {
		t.Fatalf("patched deep image: incremental lane stats %+v, want retrained types", st)
	}
	check("patched deep/opt (incremental)", incr)
}

// wordsTestImages builds the 19 Table 2 images and one synthetic image
// per generator shape.
func wordsTestImages(t *testing.T) map[string]*image.Image {
	t.Helper()
	imgs := map[string]*image.Image{}
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		imgs[b.Name] = img
	}
	for _, name := range []string{"random/opt", "deep/devirt", "wide/comdat", "diamond/partial", "split/friendly", "interleaved/opt"} {
		img, _, err := synthConfig(t, name).Build()
		if err != nil {
			t.Fatal(err)
		}
		imgs[name] = img
	}
	return imgs
}

// TestWordSetsMatchFmtKeys: the encoded tracelet table holds every
// tracelet as the per-event lookup encodes it; the per-type word sets
// and the family word unions, deduplicated by fixed-width symbol keys,
// equal the sets the formatted-string keys produced (each tracelet keyed
// by its event notation, each encoded word by fmt.Sprint), in the same
// order; and each word's multiplicity is the number of the type's
// tracelets with its formatted key, so the multiplicities sum to the
// type's tracelet count. Checked on the Table 2 images and one synthetic
// image per generator shape.
func TestWordSetsMatchFmtKeys(t *testing.T) {
	for name, img := range wordsTestImages(t) {
		res, err := Analyze(img, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sym := refSymbols(res)
		for _, v := range res.VTables {
			tls := res.Tracelets.PerType[v.Addr]
			enc := res.enc[v.Addr]
			if len(enc.ends) != len(tls) {
				t.Fatalf("%s: type %#x: table holds %d tracelets, want %d", name, v.Addr, len(enc.ends), len(tls))
			}
			start := int32(0)
			for i, end := range enc.ends {
				if got, want := enc.syms[start:end], refEncode(sym, tls[i]); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: type %#x tracelet %d: table holds %v, per-event encoding %v", name, v.Addr, i, got, want)
				}
				start = end
			}

			index := map[string]int{}
			var want [][]int32
			var counts []int32
			for _, tl := range tls {
				k := tl.String()
				if i, ok := index[k]; ok {
					counts[i]++
					continue
				}
				index[k] = len(want)
				want = append(want, refEncode(sym, tl))
				counts = append(counts, 1)
			}
			ws := res.words[v.Addr]
			if !reflect.DeepEqual(ws.words, want) {
				t.Fatalf("%s: type %#x: word set differs from the formatted-key reference", name, v.Addr)
			}
			if !reflect.DeepEqual(ws.counts, counts) {
				t.Fatalf("%s: type %#x: multiplicities %v, formatted-key counts %v", name, v.Addr, ws.counts, counts)
			}
			sum := 0
			for _, c := range ws.counts {
				sum += int(c)
			}
			if sum != len(tls) {
				t.Fatalf("%s: type %#x: multiplicities sum to %d, want %d tracelets", name, v.Addr, sum, len(tls))
			}
		}
		for _, fam := range res.Structural.Families {
			seen := map[string]bool{}
			var want [][]int32
			for _, t := range fam {
				for _, w := range res.words[t].words {
					if k := fmt.Sprint(w); !seen[k] {
						seen[k] = true
						want = append(want, w)
					}
				}
			}
			if got := res.familyWords(fam); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: family %#x: word union differs from the formatted-key reference", name, fam)
			}
		}
	}
}

// TestTypeKeysMatchPerEventOracle: the TypeKeys hashed from the encoded
// table equal the per-event digests byte for byte — on the Table 2
// images and the synthetic shapes (cold), and on a patched deep image on
// the incremental lane, where unaffected types copy the prior key and
// the retrained ones hash afresh.
func TestTypeKeysMatchPerEventOracle(t *testing.T) {
	check := func(label string, res *Result) {
		t.Helper()
		got, want := res.computeTypeKeys(), refTypeKeys(res)
		if !reflect.DeepEqual(got, want) {
			for _, v := range res.VTables {
				if got[v.Addr] != want[v.Addr] {
					t.Fatalf("%s: type %#x: TypeKey %x, per-event oracle %x", label, v.Addr, got[v.Addr], want[v.Addr])
				}
			}
			t.Fatalf("%s: TypeKeys differ from the per-event oracle", label)
		}
	}
	for name, img := range wordsTestImages(t) {
		check(name, analyzeCached(t, img, DefaultConfig()))
	}

	img, cands := synthPatchable(t)
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	analyzeCached(t, img, cfg)
	incr := analyzeCached(t, patchedCopy(t, img, cands, 1), cfg)
	if st := incr.Incremental; st == nil || st.TypesRetrained == 0 || st.TypesRetrained >= len(incr.VTables) {
		t.Fatalf("patched deep image: incremental lane stats %+v, want both reused and retrained types", st)
	}
	check("patched deep/opt (incremental)", incr)
}
