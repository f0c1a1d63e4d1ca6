package snapshot

import (
	"crypto/sha256"
	"fmt"
	"math"

	"repro/internal/objtrace"
	"repro/internal/slm"
	"repro/internal/structural"
	"repro/internal/vtable"
)

// refDecode is the decoder as it stood before the arena decode: every
// tracelet sequence in its own allocation, filled one symbol at a time,
// through an intermediate sequence map. Decode must agree with it on
// every input — the same accept/reject verdict and a reflect.DeepEqual
// result, nil-vs-empty slices included (TestDecodeMatchesReference,
// FuzzDecodeSnapshot).
func refDecode(data []byte) (*Snapshot, error) {
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
	n := r.count(9) // kind u8 + n u64
	for i := 0; i < n && r.err == nil; i++ {
		ev := objtrace.Event{Kind: objtrace.EventKind(r.u8()), N: r.u64()}
		if r.err == nil {
			if err := checkEvent(ev); err != nil {
				return nil, err
			}
		}
		s.Alphabet = append(s.Alphabet, ev)
	}
	n = r.count(12) // addr u64 + slot count u32
	for i := 0; i < n && r.err == nil; i++ {
		v := &vtable.VTable{Addr: r.u64()}
		v.Slots = r.addrs()
		s.VTables = append(s.VTables, v)
	}
	readSeqs := func() map[uint64][][]objtrace.Event {
		out := map[uint64][][]objtrace.Event{}
		nt := r.count(12)
		for i := 0; i < nt && r.err == nil; i++ {
			t := r.u64()
			ns := r.count(4)
			var seqs [][]objtrace.Event
			for j := 0; j < ns && r.err == nil; j++ {
				ne := r.count(4)
				seq := make([]objtrace.Event, 0, min(ne, r.remaining()/4+1))
				for k := 0; k < ne && r.err == nil; k++ {
					sym := int(r.u32())
					if r.err == nil && sym >= len(s.Alphabet) {
						r.fail(fmt.Errorf("snapshot: tracelet symbol %d outside alphabet %d", sym, len(s.Alphabet)))
						break
					}
					seq = append(seq, s.Alphabet[sym])
				}
				seqs = append(seqs, seq)
			}
			out[t] = seqs
		}
		return out
	}
	s.Tracelets = &objtrace.Result{}
	perType := readSeqs()
	s.Tracelets.PerType = make(map[uint64][]objtrace.Tracelet, len(perType))
	for t, seqs := range perType {
		tls := make([]objtrace.Tracelet, len(seqs))
		for i, seq := range seqs {
			tls[i] = objtrace.Tracelet(seq)
		}
		s.Tracelets.PerType[t] = tls
	}
	s.Tracelets.RawPerType = readSeqs()
	n = r.count(13) // fn u64 + entryThis u8 + event count u32
	for i := 0; i < n && r.err == nil; i++ {
		os := objtrace.ObjStruct{Fn: r.u64(), EntryThis: r.bool()}
		ne := r.count(21) // install u8 + off u32 + vt u64 + callee u64
		for j := 0; j < ne && r.err == nil; j++ {
			os.Events = append(os.Events, objtrace.StructEvent{
				Install: r.bool(),
				Off:     int32(r.u32()),
				VT:      r.u64(),
				Callee:  r.u64(),
			})
		}
		s.Tracelets.Structs = append(s.Tracelets.Structs, os)
	}
	s.Tracelets.FnVTables = r.addrsMap()
	s.Structural = &structural.Result{FamilyOf: map[uint64]int{}}
	n = r.count(4)
	for i := 0; i < n && r.err == nil; i++ {
		fam := r.addrs()
		s.Structural.Families = append(s.Structural.Families, fam)
		for _, t := range fam {
			s.Structural.FamilyOf[t] = i
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
	n = r.count(8)
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
	n = r.count(17) // types count u32 + weight u64 + truncated u8 + arbs count u32
	for i := 0; i < n && r.err == nil; i++ {
		fr := Family{Types: r.addrs(), Weight: math.Float64frombits(r.u64()), Truncated: r.bool()}
		na := r.count(4)
		for j := 0; j < na && r.err == nil; j++ {
			fr.Arbs = append(fr.Arbs, r.pairsMap())
		}
		s.Families = append(s.Families, fr)
	}
	s.Parents = r.pairsMap()
	s.MultiParents = r.addrsMap()

	// Function-granular section.
	switch r.u8() {
	case 0:
	case 1:
		fs := &FnSection{}
		copy(fs.ContextDigest[:], r.bytes(32))
		nf := r.count(48) // digest 32 + entry u64 + two counts
		for i := 0; i < nf && r.err == nil; i++ {
			var fb FnBundle
			copy(fb.Digest[:], r.bytes(32))
			fb.Ext.Entry = r.u64()
			ns := r.count(12) // vt u64 + event count u32
			for j := 0; j < ns && r.err == nil; j++ {
				seg := objtrace.Segment{VT: r.u64()}
				ne := r.count(9) // kind u8 + n u64
				for k := 0; k < ne && r.err == nil; k++ {
					ev := objtrace.Event{Kind: objtrace.EventKind(r.u8()), N: r.u64()}
					if r.err == nil {
						if err := checkEvent(ev); err != nil {
							r.fail(fmt.Errorf("%w in function bundle", err))
							break
						}
					}
					seg.Events = append(seg.Events, ev)
				}
				fb.Ext.Segments = append(fb.Ext.Segments, seg)
			}
			nos := r.count(5) // entryThis u8 + event count u32
			for j := 0; j < nos && r.err == nil; j++ {
				os := objtrace.ObjStruct{Fn: fb.Ext.Entry, EntryThis: r.bool()}
				ne := r.count(21)
				for k := 0; k < ne && r.err == nil; k++ {
					os.Events = append(os.Events, objtrace.StructEvent{
						Install: r.bool(),
						Off:     int32(r.u32()),
						VT:      r.u64(),
						Callee:  r.u64(),
					})
				}
				fb.Ext.Structs = append(fb.Ext.Structs, os)
			}
			fs.Funcs = append(fs.Funcs, fb)
		}
		nt := r.count(40) // type u64 + key 32
		fs.TypeKeys = make(map[uint64][32]byte, nt)
		for i := 0; i < nt && r.err == nil; i++ {
			t := r.u64()
			var k [32]byte
			copy(k[:], r.bytes(32))
			fs.TypeKeys[t] = k
		}
		s.Funcs = fs
	default:
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
