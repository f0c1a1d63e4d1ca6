// Package snapshot implements the persistent, content-addressed analysis
// cache: everything the pipeline derives from a binary image — the
// interned event alphabet, discovered vtables, extracted tracelets and
// structural observations, the per-type frozen SLM tries, and the
// hierarchy-stage outputs (pairwise distances, per-family arborescences,
// chosen parents) — serialized into one versioned binary file keyed by the
// image's content digest plus per-section configuration fingerprints.
//
// This package is the one owner of the section chain: the sections'
// order, their fingerprint tags, the reuse levels they complete, and how
// a fingerprint hashes its section's canonical configuration (Fingerprints).
// The key is the image content digest plus one fingerprint per section,
// in section order:
//
//	image digest   SHA-256 of the image's analysis-relevant content
//	               (image.ContentDigest)
//	extract FP     LevelExtraction — front-end config (the tracelet
//	               window, plus the fixed extraction bounds) guarding the
//	               extraction section
//	model FP       LevelModels — SLM config (depth) guarding the
//	               frozen-models section
//	hier FP        LevelHierarchy — back-end config (metric, root
//	               weight, co-optimal tie tolerance, plus the
//	               fused evidence configuration whenever it differs
//	               from the SLM-only default) guarding the hierarchy
//	               section
//
// A snapshot restores warm only under a key equal to the run's. The
// sections form a strict dependency chain (models are trained on the
// extraction, the hierarchy is solved over the models), so Key.MatchLevel
// grades how far a snapshot written under another configuration (or for
// another version of the image) agrees, up to the first fingerprint that
// disagrees; internal/core's version-diff lane gates its reuse on it.
// Changing only the distance metric reuses extraction and models and
// recomputes the hierarchy; changing the SLM depth reuses only the
// extraction; changing the tracelet window makes the snapshot unusable.
// Worker counts appear in no fingerprint — the pipeline's results are
// identical for every worker count.
//
// Every variable-length count is validated against the bytes actually
// remaining before anything is allocated, so a corrupted or truncated
// snapshot fails fast with an error — never a panic or an attempted
// multi-gigabyte allocation (fuzz-tested by FuzzDecodeSnapshot). The file
// ends with a SHA-256 checksum of everything before it, so even a bit
// flip inside an opaque payload (a distance value, a model count) is
// detected and treated as a cache miss instead of silently poisoning a
// warm analysis.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/arborescence"
	"repro/internal/objtrace"
	"repro/internal/slm"
	"repro/internal/structural"
	"repro/internal/vtable"
)

const (
	magic = "RSNP"
	// Version is the snapshot format version; bumped on any layout change.
	// Exactly one version is readable: a file of any other version fails
	// with ErrVersion, which callers treat as a cache miss (one cold run).
	// v4 (the current layout): the header carries the image-family name
	// hash; each family stores its co-optimal survivors as the compact
	// arborescence.CoOptimal structure (v3 stored a truncation flag and
	// the surviving arborescences as maps); the body ends with the
	// function-granular extraction section (per-function bundles keyed by
	// content digest + per-type training-input keys).
	Version = 4

	// HeaderLen is the fixed header: magic, version, image digest, one
	// fingerprint per section, and the image-family name hash.
	// parseHeader/appendHeader are the only code that knows this layout;
	// ReadHeader, Encode, and Decode all go through them.
	HeaderLen = 4 + 4 + (1+NumSections)*32 + 32
)

// ErrVersion reports a snapshot file written in a format version other
// than Version.
var ErrVersion = errors.New("snapshot: unsupported format version")

// The sections, in dependency order, each numbered by the reuse level it
// completes: level k means the first k sections are reusable. This is the
// only enumeration of the chain; a section's fingerprint sits at
// Key.FPs[level-1].
const (
	// LevelNone: nothing reusable (cold run).
	LevelNone = iota
	// LevelExtraction: alphabet, vtables, tracelets, structural results.
	LevelExtraction
	// LevelModels: LevelExtraction plus the frozen SLM tries.
	LevelModels
	// LevelHierarchy: everything — distances, arborescences, parents.
	LevelHierarchy

	// NumSections is the section count (and the length of a fingerprint
	// chain).
	NumSections = LevelHierarchy
)

// sectionTags are the sections' fingerprint domain tags, indexed by
// level-1. The spellings are load-bearing: they feed the fingerprint
// hashes and must not change, or every existing snapshot becomes invalid.
var sectionTags = [NumSections]string{"extract", "model", "hier"}

// Tag returns the tag of the section that completes level
// (LevelExtraction..LevelHierarchy); observer reports name stage sections
// by it.
func Tag(level int) string { return sectionTags[level-1] }

// Fingerprints hashes each section's canonical configuration rendering,
// given in section order, as SHA-256 of "tag|canon". The result is a
// Key's FPs. A canon renders exactly the configuration its section's
// outputs depend on; the bytes are load-bearing, since every existing
// snapshot was keyed with them.
func Fingerprints(canons [NumSections]string) (fps [NumSections][32]byte) {
	for i, canon := range canons {
		fps[i] = sha256.Sum256([]byte(sectionTags[i] + "|" + canon))
	}
	return fps
}

// Key identifies the analysis a snapshot caches.
type Key struct {
	// Digest is the image content digest (image.ContentDigest).
	Digest [32]byte
	// FPs is the per-section configuration fingerprint chain in section
	// order (Fingerprints).
	FPs [NumSections][32]byte
}

// FileName returns the snapshot's file name within a cache directory. It
// is derived from the image digest alone, so one image owns one cache slot
// regardless of configuration: re-analyzing under a changed config
// overwrites the slot (after diffing against it, while its extraction
// fingerprint matches, on internal/core's version-diff lane).
func (k Key) FileName() string {
	return hex.EncodeToString(k.Digest[:16]) + ".rsnap"
}

// MatchLevel returns the reuse level up to which o's fingerprint chain
// agrees with k's: a mismatch in the section completing level L caps it
// at L-1. The image digests are not compared, so the incremental lane
// grades a prior version of the image with it.
func (k Key) MatchLevel(o Key) int {
	for i := range k.FPs {
		if k.FPs[i] != o.FPs[i] {
			return i
		}
	}
	return NumSections
}

// Header is the decoded fixed-size file header: the format version, the
// content-addressed key, and the image-family name hash. It is the single
// description of the header layout shared by the encoder and every
// reader.
type Header struct {
	Version uint32
	Key     Key
	// NameHash identifies the image family (HashName of the module name).
	// The incremental lane's auto-discovery scans cache headers for prior
	// versions of the same family without decoding bodies.
	NameHash [32]byte
}

// HashName hashes a module/display name into the header's image-family
// slot. The raw name never lands on disk, matching ContentDigest's
// name-independence everywhere else.
func HashName(name string) [32]byte {
	return sha256.Sum256([]byte("rockname\x00" + name))
}

// appendHeader serializes a header.
func appendHeader(buf []byte, h Header) []byte {
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, h.Version)
	buf = append(buf, h.Key.Digest[:]...)
	for sec := range h.Key.FPs {
		buf = append(buf, h.Key.FPs[sec][:]...)
	}
	return append(buf, h.NameHash[:]...)
}

// parseHeader decodes the fixed header from the start of data. Only
// Version parses; anything else (older or future versions) fails with
// ErrVersion, which callers treat as a cache miss.
func parseHeader(data []byte) (Header, error) {
	if len(data) < 8 {
		return Header{}, fmt.Errorf("snapshot: short header (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return Header{}, fmt.Errorf("snapshot: bad magic")
	}
	var h Header
	h.Version = binary.LittleEndian.Uint32(data[4:8])
	if h.Version != Version {
		return Header{}, fmt.Errorf("%w %d", ErrVersion, h.Version)
	}
	if len(data) < HeaderLen {
		return Header{}, fmt.Errorf("snapshot: short header (%d bytes)", len(data))
	}
	copy(h.Key.Digest[:], data[8:40])
	for sec := range h.Key.FPs {
		copy(h.Key.FPs[sec][:], data[40+32*sec:])
	}
	copy(h.NameHash[:], data[HeaderLen-32:HeaderLen])
	return h, nil
}

// FnBundle is one function's cached extraction, addressed by the
// function's content digest (image.FunctionDigest). On a version-diff run
// a bundle is adopted verbatim when its digest and the section's context
// digest both match the new image.
type FnBundle struct {
	Digest [32]byte
	Ext    objtrace.FnExtraction
}

// FnSection is the function-granular extraction section: everything
// the incremental lane needs to re-analyze a patched sibling of this
// image without re-running unchanged work.
type FnSection struct {
	// ContextDigest guards the cross-function extractor inputs
	// (objtrace.ContextDigest): bundles are only reusable under an
	// identical context.
	ContextDigest [32]byte
	// Funcs holds one bundle per function, in function (entry) order.
	Funcs []FnBundle
	// TypeKeys maps each type to a digest of its training input
	// (core's TypeKey); a match certifies the prior frozen model is the
	// one training would reproduce.
	TypeKeys map[uint64][32]byte
}

// Family is one cached per-family outcome (mirrors core.FamilyResult).
type Family struct {
	// Types lists the family members, ascending.
	Types []uint64
	// Weight is the minimum arborescence weight.
	Weight float64
	// Survivors describes the co-optimal arborescences that survive
	// majority voting, over the family graph (node 0 the virtual root,
	// node i+1 Types[i]).
	Survivors arborescence.CoOptimal
}

// Snapshot is the decoded cache content.
type Snapshot struct {
	Key Key
	// NameHash is the image-family name hash (HashName; zero when the
	// producer declined to name the image).
	NameHash [32]byte

	// Extraction section (LevelExtraction).
	Alphabet   []objtrace.Event
	VTables    []*vtable.VTable
	Tracelets  *objtrace.Result
	Structural *structural.Result

	// Models section (LevelModels).
	Frozen map[uint64]*slm.Frozen

	// Hierarchy section (LevelHierarchy).
	Dist map[[2]uint64]float64
	// Families holds the per-family outcomes in family order.
	Families []Family
	// Parents is the reconstructed forest as a child→parent map.
	Parents map[uint64]uint64
	// MultiParents maps multiple-inheritance types to their parent sets.
	MultiParents map[uint64][]uint64

	// Funcs is the function-granular extraction section; every snapshot
	// carries one (Encode fails without it). Its validity is guarded
	// separately: bundle reuse re-checks per-function digests and the
	// context digest, so a stale section degrades to re-execution, never
	// to wrong results.
	Funcs *FnSection
}

// Load reads and decodes a snapshot file. A missing, unreadable, or
// corrupted file returns an error; callers treat any error as a cache
// miss.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// ReadHeader reads only the fixed-size header of a snapshot file —
// magic, version, key, and name hash — without loading or checksumming
// the body. It is an advisory probe for cache-aware scheduling: a
// matching key predicts a warm hit cheaply, but the full Load still
// validates the checksum, so a stale or corrupt body is caught on the
// real read. Any error (including a version mismatch) means "treat as
// cold".
func ReadHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return Header{}, fmt.Errorf("snapshot: short header: %w", err)
	}
	return parseHeader(hdr[:])
}

// WriteFile atomically writes the encoded snapshot: the bytes land in a
// temporary file in the target directory first and are renamed into
// place, so a concurrent reader never observes a half-written snapshot.
func (s *Snapshot) WriteFile(path string) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".rsnap-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Encoding ---------------------------------------------------------------

// Encode serializes the snapshot deterministically: map keys are emitted
// in sorted order, so the same snapshot content always produces the same
// bytes. The output buffer is sized once, up front (encodedSize), so the
// encoder never regrows it.
func (s *Snapshot) Encode() ([]byte, error) {
	if s.Funcs == nil {
		return nil, errors.New("snapshot: no function section")
	}
	w := &writer{buf: make([]byte, 0, s.encodedSize())}
	w.buf = appendHeader(w.buf, Header{Version: Version, Key: s.Key, NameHash: s.NameHash})

	// Extraction section. Tracelet events are stored as indices into the
	// interned alphabet (every event appearing in a tracelet is interned
	// by construction).
	idx := objtrace.NewEventTable(s.Alphabet)
	w.u32(uint32(len(s.Alphabet)))
	for _, e := range s.Alphabet {
		w.u8(uint8(e.Kind))
		w.u64(e.N)
	}
	w.u32(uint32(len(s.VTables)))
	for _, v := range s.VTables {
		w.u64(v.Addr)
		w.u32(uint32(len(v.Slots)))
		for _, f := range v.Slots {
			w.u64(f)
		}
	}
	if err := writeSeqs(w, idx, s.Tracelets.PerType); err != nil {
		return nil, err
	}
	if err := writeSeqs(w, idx, s.Tracelets.RawPerType); err != nil {
		return nil, err
	}
	w.u32(uint32(len(s.Tracelets.Structs)))
	for _, os := range s.Tracelets.Structs {
		w.u64(os.Fn)
		w.bool(os.EntryThis)
		w.structEvents(os.Events)
	}
	w.addrsMap(s.Tracelets.FnVTables)
	w.u32(uint32(len(s.Structural.Families)))
	for _, fam := range s.Structural.Families {
		w.addrs(fam)
	}
	w.addrsMap(s.Structural.PossibleParents)
	w.pairsMap(s.Structural.DefinitiveParent)
	w.u64(s.Structural.Purecall)
	w.addrsMap(s.Structural.SecondaryInstalls)
	w.addrsMap(s.Structural.InstallerOf)

	// Models section.
	w.u32(uint32(len(s.Frozen)))
	for _, t := range sortedKeys(s.Frozen) {
		w.u64(t)
		w.buf = s.Frozen[t].AppendBinary(w.buf)
	}

	// Hierarchy section.
	dk := make([][2]uint64, 0, len(s.Dist))
	for pc := range s.Dist {
		dk = append(dk, pc)
	}
	sort.Slice(dk, func(i, j int) bool {
		if dk[i][0] != dk[j][0] {
			return dk[i][0] < dk[j][0]
		}
		return dk[i][1] < dk[j][1]
	})
	w.u32(uint32(len(dk)))
	for _, pc := range dk {
		w.u64(pc[0])
		w.u64(pc[1])
		w.u64(math.Float64bits(s.Dist[pc]))
	}
	w.u32(uint32(len(s.Families)))
	for _, fr := range s.Families {
		w.addrs(fr.Types)
		w.u64(math.Float64bits(fr.Weight))
		w.u32(uint32(fr.Survivors.Root))
		w.u32(uint32(len(fr.Survivors.Tight)))
		for _, ps := range fr.Survivors.Tight {
			w.ints(ps)
		}
		w.u32(uint32(len(fr.Survivors.Sets)))
		for _, set := range fr.Survivors.Sets {
			w.ints(set)
		}
	}
	w.pairsMap(s.Parents)
	w.addrsMap(s.MultiParents)

	// Function-granular section, behind a flag byte that is always 1 (the
	// section was once optional). Bundle events are stored raw (kind +
	// operand), not as alphabet indices: a bundle can carry segments that
	// never reached any type's tracelets (and thus the alphabet), and a
	// patched sibling's alphabet differs anyway.
	w.u8(1)
	w.raw(s.Funcs.ContextDigest[:])
	w.u32(uint32(len(s.Funcs.Funcs)))
	for _, fb := range s.Funcs.Funcs {
		w.raw(fb.Digest[:])
		w.u64(fb.Ext.Entry)
		w.u32(uint32(len(fb.Ext.Segments)))
		for _, seg := range fb.Ext.Segments {
			w.u64(seg.VT)
			w.u32(uint32(len(seg.Events)))
			for _, e := range seg.Events {
				w.u8(uint8(e.Kind))
				w.u64(e.N)
			}
		}
		// Struct Fn duplicates the bundle entry; reconstructed on
		// decode.
		w.u32(uint32(len(fb.Ext.Structs)))
		for _, os := range fb.Ext.Structs {
			w.bool(os.EntryThis)
			w.structEvents(os.Events)
		}
	}
	tk := sortedKeys(s.Funcs.TypeKeys)
	w.u32(uint32(len(tk)))
	for _, t := range tk {
		w.u64(t)
		k := s.Funcs.TypeKeys[t]
		w.raw(k[:])
	}
	sum := sha256.Sum256(w.buf)
	return append(w.buf, sum[:]...), nil
}

// writeSeqs writes one tracelet section: per type in ascending order, its
// sequences as alphabet indices.
func writeSeqs[S ~[]objtrace.Event](w *writer, idx *objtrace.EventTable, seqs map[uint64][]S) error {
	keys := sortedKeys(seqs)
	w.u32(uint32(len(keys)))
	for _, t := range keys {
		w.u64(t)
		w.u32(uint32(len(seqs[t])))
		for _, seq := range seqs[t] {
			w.u32(uint32(len(seq)))
			for _, e := range seq {
				sym, ok := idx.Lookup(e)
				if !ok {
					return fmt.Errorf("snapshot: tracelet event %v not in the interned alphabet", e)
				}
				w.u32(uint32(sym))
			}
		}
	}
	return nil
}

// encodedSize returns the exact length Encode produces for s, checksum
// included. It mirrors Encode field by field; the decode tests pin the
// two together by checking that Encode's output has no spare capacity.
func (s *Snapshot) encodedSize() int {
	n := HeaderLen + 4 + 9*len(s.Alphabet) + 4
	for _, v := range s.VTables {
		n += 12 + 8*len(v.Slots)
	}
	n += seqsSize(s.Tracelets.PerType) + seqsSize(s.Tracelets.RawPerType) + 4
	for _, os := range s.Tracelets.Structs {
		n += 13 + 21*len(os.Events)
	}
	n += addrsMapSize(s.Tracelets.FnVTables) + 4
	for _, fam := range s.Structural.Families {
		n += 4 + 8*len(fam)
	}
	n += addrsMapSize(s.Structural.PossibleParents) + 4 + 16*len(s.Structural.DefinitiveParent) + 8 +
		addrsMapSize(s.Structural.SecondaryInstalls) + addrsMapSize(s.Structural.InstallerOf)
	n += 4
	for _, f := range s.Frozen {
		n += 8 + f.EncodedSize()
	}
	n += 4 + 24*len(s.Dist) + 4
	for _, fr := range s.Families {
		n += 4 + 8*len(fr.Types) + 8 + 4 + 4 + 4
		for _, ps := range fr.Survivors.Tight {
			n += 4 + 4*len(ps)
		}
		for _, set := range fr.Survivors.Sets {
			n += 4 + 4*len(set)
		}
	}
	n += 4 + 16*len(s.Parents) + addrsMapSize(s.MultiParents) + 1
	n += 32 + 4
	for _, fb := range s.Funcs.Funcs {
		n += 32 + 8 + 4
		for _, seg := range fb.Ext.Segments {
			n += 12 + 9*len(seg.Events)
		}
		n += 4
		for _, os := range fb.Ext.Structs {
			n += 5 + 21*len(os.Events)
		}
	}
	n += 4 + 40*len(s.Funcs.TypeKeys)
	return n + sha256.Size
}

// seqsSize is the encoded size of one tracelet section.
func seqsSize[S ~[]objtrace.Event](seqs map[uint64][]S) int {
	n := 4
	for _, ss := range seqs {
		n += 12
		for _, seq := range ss {
			n += 4 + 4*len(seq)
		}
	}
	return n
}

// addrsMapSize is the encoded size of a map of address slices.
func addrsMapSize(m map[uint64][]uint64) int {
	n := 4
	for _, v := range m {
		n += 12 + 8*len(v)
	}
	return n
}

// checkEvent rejects events the extractor never emits: an unknown kind,
// or a this/ret event with a nonzero operand (objtrace.Event documents N
// as zero for both, and the event notation, which renders them without
// it, would conflate two such events that the symbol alphabet keeps
// apart).
func checkEvent(e objtrace.Event) error {
	if e.Kind > objtrace.EvCallF {
		return fmt.Errorf("snapshot: unknown event kind %d", e.Kind)
	}
	if (e.Kind == objtrace.EvThis || e.Kind == objtrace.EvRet) && e.N != 0 {
		return fmt.Errorf("snapshot: %v event with operand %d", e, e.N)
	}
	return nil
}

// Decode parses an encoded snapshot. The whole-file checksum is verified
// before anything is parsed, and every count is validated against the
// bytes remaining before it sizes an allocation. Each tracelet section
// decodes into one event arena (readSeqs), and every other slice is
// allocated once at its validated length, so a restore makes a fixed
// number of allocations per section, independent of how many events it
// holds. Empty slices decode as the producers build them: nil, except a
// PerType entry with no tracelets and an empty tracelet, which are empty
// and non-nil.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < sha256.Size {
		return nil, fmt.Errorf("snapshot: truncated before checksum (%d bytes)", len(data))
	}
	payload := data[:len(data)-sha256.Size]
	if sum := sha256.Sum256(payload); string(sum[:]) != string(data[len(payload):]) {
		return nil, fmt.Errorf("snapshot: checksum mismatch")
	}
	h, err := parseHeader(payload)
	if err != nil {
		return nil, err
	}
	r := &reader{data: payload, pos: HeaderLen}
	s := &Snapshot{Key: h.Key, NameHash: h.NameHash}

	// Extraction section.
	if n := r.count(9); n > 0 { // kind u8 + n u64
		s.Alphabet = make([]objtrace.Event, n)
		for i := range s.Alphabet {
			ev := objtrace.Event{Kind: objtrace.EventKind(r.u8()), N: r.u64()}
			if r.err != nil {
				break
			}
			if err := checkEvent(ev); err != nil {
				return nil, err
			}
			s.Alphabet[i] = ev
		}
		// Symbols index the alphabet one to one; a repeated event would
		// give its tracelets two symbols.
		if r.err == nil && objtrace.NewEventTable(s.Alphabet).Len() != n {
			return nil, fmt.Errorf("snapshot: alphabet lists an event twice")
		}
	}
	if n := r.count(12); n > 0 { // addr u64 + slot count u32
		vts := make([]vtable.VTable, n)
		s.VTables = make([]*vtable.VTable, n)
		for i := 0; i < n && r.err == nil; i++ {
			vts[i] = vtable.VTable{Addr: r.u64(), Slots: r.addrs()}
			s.VTables[i] = &vts[i]
		}
	}
	s.Tracelets = &objtrace.Result{
		PerType:    readSeqs[objtrace.Tracelet](r, s.Alphabet, false),
		RawPerType: readSeqs[[]objtrace.Event](r, s.Alphabet, true),
	}
	if n := r.count(13); n > 0 { // fn u64 + entryThis u8 + event count u32
		s.Tracelets.Structs = make([]objtrace.ObjStruct, n)
		for i := 0; i < n && r.err == nil; i++ {
			os := &s.Tracelets.Structs[i]
			os.Fn, os.EntryThis = r.u64(), r.bool()
			os.Events = r.structEvents()
		}
	}
	s.Tracelets.FnVTables = r.addrsMap()
	s.Structural = &structural.Result{FamilyOf: map[uint64]int{}}
	if n := r.count(4); n > 0 {
		s.Structural.Families = make([][]uint64, n)
		for i := 0; i < n && r.err == nil; i++ {
			fam := r.addrs()
			s.Structural.Families[i] = fam
			for _, t := range fam {
				s.Structural.FamilyOf[t] = i
			}
		}
	}
	// Candidate-free types keep nil slices, matching how the structural
	// analysis materializes them (addrs decodes empty as nil).
	s.Structural.PossibleParents = r.addrsMap()
	s.Structural.DefinitiveParent = r.pairsMap()
	s.Structural.Purecall = r.u64()
	s.Structural.SecondaryInstalls = r.addrsMap()
	s.Structural.InstallerOf = r.addrsMap()

	// Models section.
	n := r.count(8)
	s.Frozen = make(map[uint64]*slm.Frozen, n)
	for i := 0; i < n && r.err == nil; i++ {
		t := r.u64()
		if r.err != nil {
			break
		}
		// Every model is trained over the interned alphabet (at least one
		// symbol), so any other declared size is hostile input.
		f, rest, err := slm.DecodeFrozen(r.data[r.pos:], max(1, len(s.Alphabet)))
		if err != nil {
			return nil, err
		}
		r.pos = len(r.data) - len(rest)
		s.Frozen[t] = f
	}

	// Hierarchy section.
	n = r.count(24) // p u64 + c u64 + bits u64
	s.Dist = make(map[[2]uint64]float64, n)
	for i := 0; i < n && r.err == nil; i++ {
		p, c := r.u64(), r.u64()
		s.Dist[[2]uint64{p, c}] = math.Float64frombits(r.u64())
	}
	if n := r.count(24); n > 0 { // types count u32 + weight u64 + root u32 + tight count u32 + sets count u32
		s.Families = make([]Family, n)
		for i := 0; i < n && r.err == nil; i++ {
			fr := &s.Families[i]
			fr.Types, fr.Weight = r.addrs(), math.Float64frombits(r.u64())
			co := &fr.Survivors
			co.Root = int(r.u32())
			co.Tight = make([][]int, r.count(4))
			for v := range co.Tight {
				co.Tight[v] = r.ints()
			}
			if ns := r.count(4); ns > 0 {
				co.Sets = make([][]int, ns)
				for j := range co.Sets {
					co.Sets[j] = r.ints()
				}
			}
			if r.err == nil && len(co.Tight) != len(fr.Types)+1 {
				r.fail(fmt.Errorf("snapshot: family of %d types has %d survivor nodes", len(fr.Types), len(co.Tight)))
			}
			if r.err == nil {
				if err := co.Validate(); err != nil {
					r.fail(fmt.Errorf("snapshot: %w", err))
				}
			}
		}
	}
	s.Parents = r.pairsMap()
	s.MultiParents = r.addrsMap()

	// Function-granular section: its flag byte must be 1.
	if r.u8() == 1 {
		s.Funcs = r.fnSection()
	} else {
		r.fail(fmt.Errorf("snapshot: bad function-section flag"))
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes", len(r.data)-r.pos)
	}
	return s, nil
}

// readSeqs decodes one tracelet section — per type, its sequences of
// alphabet symbols — into a map of S sequences. A bounded pre-pass
// (seqEvents) sizes one event arena for the whole section; each sequence
// is a capped window of it, so an append to one sequence reallocates
// instead of overwriting its neighbour. An empty sequence is non-nil; a
// type with no sequences gets nil when nilEmpty is set, else an empty
// slice.
func readSeqs[S ~[]objtrace.Event](r *reader, alphabet []objtrace.Event, nilEmpty bool) map[uint64][]S {
	arena := make([]objtrace.Event, r.seqEvents())
	nt := r.count(12) // type u64 + sequence count u32
	out := make(map[uint64][]S, nt)
	for i := 0; i < nt && r.err == nil; i++ {
		t := r.u64()
		ns := r.count(4)
		var seqs []S
		if ns > 0 || !nilEmpty {
			seqs = make([]S, ns)
		}
		for j := 0; j < ns && r.err == nil; j++ {
			ne := r.count(4)
			syms := r.bytes(4 * ne)
			if r.err != nil {
				break
			}
			seq := arena[:ne:ne]
			arena = arena[ne:]
			for k := range seq {
				sym := binary.LittleEndian.Uint32(syms[4*k:])
				if sym >= uint32(len(alphabet)) {
					r.fail(fmt.Errorf("snapshot: tracelet symbol %d outside alphabet %d", sym, len(alphabet)))
					break
				}
				seq[k] = alphabet[sym]
			}
			seqs[j] = S(seq)
		}
		out[t] = seqs
	}
	return out
}

// seqEvents sums the event counts of the tracelet section at r's position
// without consuming it. It validates counts exactly as the real pass does
// and stops at the first one the remaining bytes cannot hold (where the
// real pass fails), so the sum never exceeds the section's bytes / 4.
func (r *reader) seqEvents() int {
	p := *r
	total := 0
	nt := p.count(12)
	for i := 0; i < nt && p.err == nil; i++ {
		p.skip(8)
		ns := p.count(4)
		for j := 0; j < ns && p.err == nil; j++ {
			ne := p.count(4)
			p.skip(4 * ne)
			total += ne
		}
	}
	return total
}

// fnSection decodes the function-granular section's body (after its
// flag byte).
func (r *reader) fnSection() *FnSection {
	fs := &FnSection{}
	copy(fs.ContextDigest[:], r.bytes(32))
	if nf := r.count(48); nf > 0 { // digest 32 + entry u64 + two counts
		fs.Funcs = make([]FnBundle, nf)
		for i := 0; i < nf && r.err == nil; i++ {
			fb := &fs.Funcs[i]
			copy(fb.Digest[:], r.bytes(32))
			fb.Ext.Entry = r.u64()
			if ns := r.count(12); ns > 0 { // vt u64 + event count u32
				fb.Ext.Segments = make([]objtrace.Segment, ns)
				for j := 0; j < ns && r.err == nil; j++ {
					seg := &fb.Ext.Segments[j]
					seg.VT = r.u64()
					ne := r.count(9) // kind u8 + n u64
					if ne == 0 {
						continue
					}
					seg.Events = make([]objtrace.Event, ne)
					for k := range seg.Events {
						ev := objtrace.Event{Kind: objtrace.EventKind(r.u8()), N: r.u64()}
						if r.err != nil {
							break
						}
						if err := checkEvent(ev); err != nil {
							r.fail(fmt.Errorf("%w in function bundle", err))
							break
						}
						seg.Events[k] = ev
					}
				}
			}
			if nos := r.count(5); nos > 0 { // entryThis u8 + event count u32
				fb.Ext.Structs = make([]objtrace.ObjStruct, nos)
				for j := 0; j < nos && r.err == nil; j++ {
					os := &fb.Ext.Structs[j]
					os.Fn, os.EntryThis = fb.Ext.Entry, r.bool()
					os.Events = r.structEvents()
				}
			}
		}
	}
	nt := r.count(40) // type u64 + key 32
	fs.TypeKeys = make(map[uint64][32]byte, nt)
	for i := 0; i < nt && r.err == nil; i++ {
		t := r.u64()
		var k [32]byte
		copy(k[:], r.bytes(32))
		fs.TypeKeys[t] = k
	}
	return fs
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// writer ----------------------------------------------------------------

type writer struct {
	buf []byte
}

func (w *writer) raw(b []byte) { w.buf = append(w.buf, b...) }
func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) addrs(s []uint64) {
	w.u32(uint32(len(s)))
	for _, v := range s {
		w.u64(v)
	}
}

// structEvents writes a length-prefixed struct-event list.
func (w *writer) structEvents(evs []objtrace.StructEvent) {
	w.u32(uint32(len(evs)))
	for _, e := range evs {
		w.bool(e.Install)
		w.u32(uint32(e.Off))
		w.u64(e.VT)
		w.u64(e.Callee)
	}
}

// addrsMap writes a map of address slices with sorted keys.
func (w *writer) addrsMap(m map[uint64][]uint64) {
	keys := sortedKeys(m)
	w.u32(uint32(len(keys)))
	for _, k := range keys {
		w.u64(k)
		w.addrs(m[k])
	}
}

// ints writes a length-prefixed list of small non-negative integers.
func (w *writer) ints(s []int) {
	w.u32(uint32(len(s)))
	for _, v := range s {
		w.u32(uint32(v))
	}
}

// pairsMap writes a map of single addresses with sorted keys.
func (w *writer) pairsMap(m map[uint64]uint64) {
	keys := sortedKeys(m)
	w.u32(uint32(len(keys)))
	for _, k := range keys {
		w.u64(k)
		w.u64(m[k])
	}
}

// reader ----------------------------------------------------------------

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) remaining() int { return len(r.data) - r.pos }

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return make([]byte, n)
	}
	if r.pos+n > len(r.data) {
		r.fail(fmt.Errorf("snapshot: truncated input at offset %d", r.pos))
		return make([]byte, n)
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// skip advances past n bytes without reading them.
func (r *reader) skip(n int) {
	if r.err != nil {
		return
	}
	if n > r.remaining() {
		r.fail(fmt.Errorf("snapshot: truncated input at offset %d", r.pos))
		return
	}
	r.pos += n
}

func (r *reader) u8() uint8   { return r.bytes(1)[0] }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.bytes(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.bytes(8)) }

func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("snapshot: bad bool at offset %d", r.pos-1))
		return false
	}
}

// count reads an element count and validates it against the bytes
// remaining, given the minimum encoded size of one element — the guard
// that keeps a corrupted count from driving a huge allocation loop.
func (r *reader) count(minElem int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n > r.remaining()/minElem {
		r.fail(fmt.Errorf("snapshot: count %d exceeds input size at offset %d", n, r.pos))
		return 0
	}
	return n
}

// addrs reads a length-prefixed address slice (nil when empty).
func (r *reader) addrs() []uint64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.u64())
	}
	return out
}

// structEvents reads a length-prefixed struct-event list (nil when
// empty).
func (r *reader) structEvents() []objtrace.StructEvent {
	n := r.count(21) // install u8 + off u32 + vt u64 + callee u64
	if n == 0 {
		return nil
	}
	out := make([]objtrace.StructEvent, n)
	for i := 0; i < n && r.err == nil; i++ {
		out[i] = objtrace.StructEvent{Install: r.bool(), Off: int32(r.u32()), VT: r.u64(), Callee: r.u64()}
	}
	return out
}

// addrsMap reads a map of address slices (non-nil, possibly empty).
func (r *reader) addrsMap() map[uint64][]uint64 {
	n := r.count(12)
	out := make(map[uint64][]uint64, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.u64()
		out[k] = r.addrs()
	}
	return out
}

// ints reads a length-prefixed integer list (nil when empty).
func (r *reader) ints() []int {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.u32())
	}
	return out
}

// pairsMap reads a map of single addresses (non-nil, possibly empty).
func (r *reader) pairsMap() map[uint64]uint64 {
	n := r.count(16)
	out := make(map[uint64]uint64, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.u64()
		out[k] = r.u64()
	}
	return out
}
