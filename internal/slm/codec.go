package slm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file serializes frozen models for the content-addressed snapshot
// layer (internal/snapshot). The on-disk form mirrors the in-memory layout
// one-to-one — header, node records, then the four shared arenas — so
// encoding is a flat copy and decoding is a bounds-checked parse followed
// by structural validation. A decoded trie is reflect.DeepEqual to the
// encoded one, and therefore answers every query bit-identically.
//
// Layout (all little-endian):
//
//	magic "FZT1" |
//	depth u32 | alphabet u32 | trained u32 |
//	nodes u32 | syms u32 | kids u32 |
//	node records: (symOff i32, symN i32, childOff i32, childN i32, total i32)... |
//	syms i32... | counts i32... | childSyms i32... | childNodes i32...
//
// Decode validates every count against the bytes actually present before
// allocating (a corrupted header must fail fast, not drive a
// multi-gigabyte allocation), and then checks the structural invariants
// the query kernel relies on: spans in-bounds, child indices in-range,
// symbols within the alphabet, and spans sorted strictly ascending (the
// binary search contract).

const frozenMagic = "FZT1"

// frozenHeaderSize is the fixed-size prefix: magic + six u32 fields.
const frozenHeaderSize = 4 + 6*4

// EncodedSize returns the exact serialized size of the frozen trie.
func (f *Frozen) EncodedSize() int {
	return frozenHeaderSize + 20*len(f.nodes) + 4*(len(f.syms)+len(f.counts)+len(f.childSyms)+len(f.childNodes))
}

// AppendBinary appends the frozen trie's serialized form to dst and
// returns the extended slice.
func (f *Frozen) AppendBinary(dst []byte) []byte {
	dst = append(dst, frozenMagic...)
	dst = appendU32(dst, uint32(f.depth))
	dst = appendU32(dst, uint32(f.alphabet))
	dst = appendU32(dst, uint32(f.trained))
	dst = appendU32(dst, uint32(len(f.nodes)))
	dst = appendU32(dst, uint32(len(f.syms)))
	dst = appendU32(dst, uint32(len(f.childSyms)))
	for i := range f.nodes {
		n := &f.nodes[i]
		dst = appendI32(dst, n.symOff)
		dst = appendI32(dst, n.symN)
		dst = appendI32(dst, n.childOff)
		dst = appendI32(dst, n.childN)
		dst = appendI32(dst, n.total)
	}
	for _, arena := range [][]int32{f.syms, f.counts, f.childSyms, f.childNodes} {
		for _, v := range arena {
			dst = appendI32(dst, v)
		}
	}
	return dst
}

// DecodeFrozen parses one serialized frozen trie over an alphabet of the
// given size from the front of data, returning the decoded model and the
// unconsumed remainder. Corrupted or truncated input returns an error, and
// so does a trie declaring any other alphabet: a querier sizes its
// exclusion array by the alphabet, so the caller's symbol table, not the
// untrusted header, must bound it. The decoder never panics and never
// allocates more than the input size warrants.
func DecodeFrozen(data []byte, alphabet int) (*Frozen, []byte, error) {
	if len(data) < frozenHeaderSize {
		return nil, nil, fmt.Errorf("slm: frozen trie truncated at header (%d bytes)", len(data))
	}
	if string(data[:4]) != frozenMagic {
		return nil, nil, fmt.Errorf("slm: bad frozen trie magic")
	}
	depth := int(binary.LittleEndian.Uint32(data[4:]))
	declared := int(binary.LittleEndian.Uint32(data[8:]))
	trained := int(binary.LittleEndian.Uint32(data[12:]))
	nNodes := int(binary.LittleEndian.Uint32(data[16:]))
	nSyms := int(binary.LittleEndian.Uint32(data[20:]))
	nKids := int(binary.LittleEndian.Uint32(data[24:]))
	rest := data[frozenHeaderSize:]

	if depth < 0 || depth > math.MaxInt32 {
		return nil, nil, fmt.Errorf("slm: frozen trie depth %d out of range", depth)
	}
	if declared != alphabet || alphabet < 1 {
		return nil, nil, fmt.Errorf("slm: frozen trie alphabet %d, want %d", declared, alphabet)
	}
	if nNodes < 1 {
		return nil, nil, fmt.Errorf("slm: frozen trie has no nodes")
	}
	// Size check before any allocation: node records are 20 bytes, arena
	// elements 4 bytes each (two arenas per count).
	need := 20*nNodes + 8*nSyms + 8*nKids
	if nNodes > len(rest)/20 || nSyms > len(rest)/8 || nKids > len(rest)/8 || need > len(rest) {
		return nil, nil, fmt.Errorf("slm: frozen trie counts (%d nodes, %d syms, %d kids) exceed input size %d",
			nNodes, nSyms, nKids, len(rest))
	}

	f := &Frozen{
		depth:    depth,
		alphabet: alphabet,
		trained:  trained,
		nodes:    make([]frozenNode, nNodes),
	}
	for i := range f.nodes {
		n := &f.nodes[i]
		n.symOff = int32(binary.LittleEndian.Uint32(rest[0:]))
		n.symN = int32(binary.LittleEndian.Uint32(rest[4:]))
		n.childOff = int32(binary.LittleEndian.Uint32(rest[8:]))
		n.childN = int32(binary.LittleEndian.Uint32(rest[12:]))
		n.total = int32(binary.LittleEndian.Uint32(rest[16:]))
		rest = rest[20:]
	}
	// One allocation backs all four arenas; each is a capped window of it,
	// so no arena can grow into its neighbour.
	backing := make([]int32, 2*nSyms+2*nKids)
	for i := range backing {
		backing[i] = int32(binary.LittleEndian.Uint32(rest[4*i:]))
	}
	rest = rest[4*len(backing):]
	arena := func(n int) []int32 {
		a := backing[:n:n]
		backing = backing[n:]
		return a
	}
	f.syms = arena(nSyms)
	f.counts = arena(nSyms)
	f.childSyms = arena(nKids)
	f.childNodes = arena(nKids)

	if err := f.validate(); err != nil {
		return nil, nil, err
	}
	return f, rest, nil
}

// validate checks the invariants the query kernel indexes by: every span
// lies within its arena, symbol spans tile their arena in node order (the
// querier's per-slot log table gives each slot one owner), child indices
// name real nodes, symbols lie within the alphabet (they index the
// querier's exclusion array), spans are strictly ascending (the
// binary-search contract), and counts are positive, as training leaves
// them (a zero count would put ln 0 or 0/0 into the log tables).
func (f *Frozen) validate() error {
	nSyms, nKids, nNodes := int32(len(f.syms)), int32(len(f.childSyms)), int32(len(f.nodes))
	nextSym := int32(0)
	for i := range f.nodes {
		n := &f.nodes[i]
		if n.symN < 0 || n.symOff < 0 || n.symOff > nSyms || n.symN > nSyms-n.symOff {
			return fmt.Errorf("slm: frozen node %d symbol span [%d,+%d) outside arena of %d", i, n.symOff, n.symN, nSyms)
		}
		if n.symOff != nextSym {
			return fmt.Errorf("slm: frozen node %d symbol span starts at %d, want %d", i, n.symOff, nextSym)
		}
		nextSym += n.symN
		if n.childN < 0 || n.childOff < 0 || n.childOff > nKids || n.childN > nKids-n.childOff {
			return fmt.Errorf("slm: frozen node %d child span [%d,+%d) outside arena of %d", i, n.childOff, n.childN, nKids)
		}
		for j := n.symOff; j < n.symOff+n.symN; j++ {
			s := f.syms[j]
			if s < 0 || int(s) >= f.alphabet {
				return fmt.Errorf("slm: frozen node %d symbol %d outside alphabet %d", i, s, f.alphabet)
			}
			if j > n.symOff && f.syms[j-1] >= s {
				return fmt.Errorf("slm: frozen node %d symbol span not strictly ascending", i)
			}
			if f.counts[j] <= 0 {
				return fmt.Errorf("slm: frozen node %d non-positive count", i)
			}
		}
		for j := n.childOff; j < n.childOff+n.childN; j++ {
			if c := f.childNodes[j]; c < 0 || c >= nNodes {
				return fmt.Errorf("slm: frozen node %d child index %d outside %d nodes", i, c, nNodes)
			}
			s := f.childSyms[j]
			if s < 0 || int(s) >= f.alphabet {
				return fmt.Errorf("slm: frozen node %d child symbol %d outside alphabet %d", i, s, f.alphabet)
			}
			if j > n.childOff && f.childSyms[j-1] >= s {
				return fmt.Errorf("slm: frozen node %d child span not strictly ascending", i)
			}
		}
	}
	return nil
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendI32(dst []byte, v int32) []byte { return appendU32(dst, uint32(v)) }
