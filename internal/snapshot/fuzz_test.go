package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// FuzzDecodeSnapshot is the satellite fuzz target: Decode must never
// panic, hang, or allocate beyond what the input size warrants, no matter
// how corrupted the bytes are — a bad snapshot is a cache miss, not a
// crash. Each input is decoded as given and resealed (its trailing
// checksum recomputed over the rest), so mutations reach the body parser
// instead of all stopping at the checksum. On both, Decode must agree
// with the reference decoder (refDecode) on accept or reject and, on
// accept, decode an equal snapshot that re-encodes cleanly.
func FuzzDecodeSnapshot(f *testing.F) {
	valid, err := sampleSnapshot().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Other format versions behind an intact checksum: the version gate,
	// not the checksum, must turn them away.
	for _, v := range []uint32{2, Version + 1} {
		f.Add(resealed(valid, v))
	}
	// Truncations at section-ish boundaries and corruptions of the
	// length-prefix bytes seed the mutator near the interesting guards:
	// the header fields, the body, and the tail where the function
	// section and its type-key table live.
	for _, n := range []int{0, 3, 4, 8, 40, HeaderLen - 32, HeaderLen - 1, HeaderLen, len(valid) / 2, len(valid) - sha256.Size, len(valid) - 1} {
		if n <= len(valid) {
			f.Add(append([]byte(nil), valid[:n]...))
		}
	}
	for _, off := range []int{4, HeaderLen - 32, HeaderLen, HeaderLen + 4, 200, len(valid) - 100, len(valid) - 40, len(valid) - 8} {
		if off >= 0 && off < len(valid) {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 0xff
			f.Add(mut)
		}
	}
	// A huge count right where the alphabet length lives.
	huge := append([]byte(nil), valid[:HeaderLen]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0x7f)
	f.Add(huge)
	// An alphabet that lists an event twice, behind an intact checksum.
	f.Add(duplicateEvent(valid, 1, 0))
	// A snapshot whose function section is flagged absent.
	f.Add(fnSectionFlag(0))
	// The sample variants' nil-vs-empty shapes.
	for _, v := range sampleVariants()[1:] {
		data, err := v.s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		agreeWithReference(t, data)
		if len(data) >= sha256.Size {
			agreeWithReference(t, seal(data[:len(data)-sha256.Size]))
		}
	})
}

// resealed returns a copy of an encoded snapshot with its version field
// set to v and the checksum recomputed over the edited payload.
func resealed(data []byte, v uint32) []byte {
	payload := append([]byte(nil), data[:len(data)-sha256.Size]...)
	binary.LittleEndian.PutUint32(payload[4:8], v)
	return seal(payload)
}

// duplicateEvent returns a copy of an encoded snapshot whose alphabet
// entry i is overwritten with entry j, resealed behind a valid checksum.
func duplicateEvent(data []byte, i, j int) []byte {
	payload := append([]byte(nil), data[:len(data)-sha256.Size]...)
	entry := func(k int) []byte { // after the alphabet's u32 count, 9 bytes each
		off := HeaderLen + 4 + 9*k
		return payload[off : off+9]
	}
	copy(entry(i), entry(j))
	return seal(payload)
}

// fnSectionFlag returns the sample snapshot with an empty function
// section, cut back to the section's flag byte, set to flag and resealed.
// With flag 0 these are the bytes of a snapshot that skips the section.
func fnSectionFlag(flag byte) []byte {
	s := sampleSnapshot()
	s.Funcs = &FnSection{}
	data, err := s.Encode()
	if err != nil {
		panic(err)
	}
	// The empty section is its flag, a 32-byte context digest, and two
	// zero u32 counts.
	payload := append([]byte(nil), data[:len(data)-sha256.Size-32-4-4]...)
	payload[len(payload)-1] = flag
	return seal(payload)
}
