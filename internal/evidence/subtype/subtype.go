// Package subtype is the constraint-based structural subtyping scorer:
// it scores child→parent edges from machine-code facts alone,
// with no statistical language models — in the spirit of Noonan et
// al.'s polymorphic type inference for machine code and BinSub's
// algebraic subtyping (see PAPERS.md).
//
// Four constraint families contribute, each normalized to [0, 1] where
// lower means "more consistent with c <: p":
//
//   - Slot overlap: a derived class's vtable starts as a copy of its
//     base's, with overridden slots rewritten. The fraction of
//     position-wise shared slot targets (pure-virtual stubs excluded —
//     they match everything) measures how much of p's interface c
//     inherits unchanged.
//   - Size proximity: |slots(c) − slots(p)| relative to c. A parent and
//     a grandparent may both overlap c, but the nearest ancestor is the
//     closest in interface size — this term breaks ancestor-chain ties
//     toward the direct parent.
//   - Install flow: during construction the base ctor installs p's
//     vtable into the same object that later holds c's (and
//     destruction replays it in reverse). Adjacent primary installs on
//     one abstract object, and calls from c's methods into functions
//     known to install p, are direct this-pointer flow from c to p.
//   - Parent-method calls: c's code calling a function that appears in
//     p's vtable (e.g. Base::method(this) after devirtualization).
//
// Unlike the SLM/KL sweep, every signal here survives the hard cases
// that erase behavioral evidence — devirtualized monomorphic sites,
// COMDAT-folded methods, partially inlined constructors — because
// vtable layout and install order are what the compiler cannot remove.
//
// The scorer is built once per analysis: an index over the objtrace
// structural observations is assembled on the shared worker pool
// (deterministically — per-chunk partial counts merged in chunk order,
// and counts are order-independent sums), then each family's Score is a
// read-only sweep over that index. Core fuses the scores into the SLM/KL
// sweep's at DefaultWeight when core.Config.Subtype is set.
package subtype

import (
	"context"

	"repro/internal/objtrace"
	"repro/internal/pool"
	"repro/internal/vtable"
)

// DefaultWeight is this scorer's fusion weight against the SLM/KL
// sweep's 1 (core.Config.Subtype, -evidence slm,subtype). It is
// calibrated on the adversarial grid (internal/eval): the grid improves
// strictly on three devirtualized configurations with no regression
// anywhere for weights in roughly [3, 6], while above ~8 the
// slot-sharing term starts to overrule the divergence ranking on
// COMDAT-folded binaries (folded methods make unrelated vtables share
// entries). 5 sits in the middle of the safe window; rockbench -fusion
// re-measures the contract at it.
const DefaultWeight = 5

// structGrain groups objtrace observation sequences per claimed range of
// the index-building fan-out.
const structGrain = 64

// The grid-calibrated term weights: fixed, not settings. The
// hierarchy-section snapshot canon of a fused configuration renders them,
// so changing one re-keys every cached fused hierarchy.
const (
	// SlotWeight scales the vtable slot-overlap term.
	SlotWeight = 1.0
	// ProxWeight scales the vtable size-proximity term.
	ProxWeight = 0.25
	// FlowWeight scales the construction install-flow term.
	FlowWeight = 0.5
	// CallWeight scales the parent-method call term.
	CallWeight = 0.5
	// RootFactor scales the virtual-root weight relative to the largest
	// score the terms can produce; it must be >= 1 so Heuristic 4.1 holds.
	RootFactor = 8.0
)

// Image is the slice of the analysis the scorer reads — the discovered
// vtables plus the objtrace/structural artifacts the constraints mine.
type Image struct {
	// VTables are the discovered vtables.
	VTables []*vtable.VTable
	// Purecall is the pure-virtual stub address (0 if none); slots
	// holding it carry no overlap evidence.
	Purecall uint64
	// Structs are the per-object structural observation sequences.
	Structs []objtrace.ObjStruct
	// InstallerOf maps a function entry to the primary vtables it
	// installs on its receiver (constructor/destructor summaries).
	InstallerOf map[uint64][]uint64
	// FnVTables maps a function entry to the vtables containing it.
	FnVTables map[uint64][]uint64
}

// counts are the per-ordered-pair [parent, child] constraint tallies.
type counts struct {
	flow map[[2]uint64]int // install adjacency + ctor calls
	call map[[2]uint64]int // calls into parent-vtable methods
}

func newCounts() *counts {
	return &counts{flow: map[[2]uint64]int{}, call: map[[2]uint64]int{}}
}

// Scorer scores one image's families; build it once with New.
type Scorer struct {
	byAddr   map[uint64]*vtable.VTable
	purecall uint64
	idx      *counts
}

// New indexes the image's structural observations and returns the
// scorer. The fan-out draws its helpers from shared (nil runs it
// serially); per-chunk partial tallies land in chunk-owned slots and
// merge in chunk order, and the merged sums are order-independent, so the
// index is identical at any pool capacity.
func New(ctx context.Context, img Image, shared *pool.Shared) (*Scorer, error) {
	p := &Scorer{
		byAddr:   make(map[uint64]*vtable.VTable, len(img.VTables)),
		purecall: img.Purecall,
	}
	for _, v := range img.VTables {
		p.byAddr[v.Addr] = v
	}
	n := len(img.Structs)
	parts := make([]*counts, (n+structGrain-1)/structGrain)
	if err := pool.ForEachChunk(ctx, shared, n, structGrain, func(lo, hi int) {
		part := newCounts()
		for _, os := range img.Structs[lo:hi] {
			p.tally(part, os, img)
		}
		parts[lo/structGrain] = part
	}); err != nil {
		return nil, err
	}
	p.idx = newCounts()
	for _, part := range parts {
		for pc, c := range part.flow {
			p.idx.flow[pc] += c
		}
		for pc, c := range part.call {
			p.idx.call[pc] += c
		}
	}
	return p, nil
}

// tally mines one object's observation sequence into part.
func (p *Scorer) tally(part *counts, os objtrace.ObjStruct, img Image) {
	// The object's own types: every primary (offset-0) install observed
	// on it, with the last one — the most-derived type of a construction
	// sequence — as the principal self. A receiver object with no install
	// is typed by the vtables containing the observing function.
	var primaries []uint64
	for _, e := range os.Events {
		if e.Install && e.Off == 0 {
			if _, known := p.byAddr[e.VT]; known {
				primaries = append(primaries, e.VT)
			}
		}
	}
	var selves []uint64
	if len(primaries) > 0 {
		selves = primaries[len(primaries)-1:]
	} else if os.EntryThis {
		selves = img.FnVTables[os.Fn]
	}
	// Install flow, source 1: adjacent primary installs on one object are
	// ctor/dtor chain steps. Construction runs base→derived and
	// destruction derived→base, so both orientations are tallied and the
	// admissibility pruning (only structurally-possible parents are ever
	// scored) keeps the wrong direction inert.
	for i := 0; i+1 < len(primaries); i++ {
		a, b := primaries[i], primaries[i+1]
		if a != b {
			part.flow[[2]uint64{a, b}]++
			part.flow[[2]uint64{b, a}]++
		}
	}
	for _, e := range os.Events {
		if e.Install || e.Callee == 0 {
			continue
		}
		// Install flow, source 2: a call on this object into a function
		// summarized as installing base vtables (a delegated base-ctor
		// call, surviving partial ctor inlining of the derived side).
		if installed := img.InstallerOf[e.Callee]; len(installed) > 0 {
			base := installed[len(installed)-1]
			for _, self := range selves {
				if base != self {
					part.flow[[2]uint64{base, self}]++
				}
			}
		}
		// Parent-method calls: this object calling a function that sits
		// in another type's vtable (Base::method after devirtualization).
		for _, vt := range img.FnVTables[e.Callee] {
			for _, self := range selves {
				if vt != self {
					part.call[[2]uint64{vt, self}]++
				}
			}
		}
	}
}

// Score is a read-only sweep of the index over one family's admissible
// (parent, child) pairs: edge[k] scores pairs[k], lower is a more likely
// child→parent edge, and root, the virtual-root edge weight, is at least
// every edge score (Heuristic 4.1). Each pair is a few map lookups and
// one slot walk — no fan-out is worth it (the caller already runs
// families concurrently). Score is safe for concurrent calls.
func (p *Scorer) Score(pairs [][2]uint64) (edge []float64, root float64) {
	edge = make([]float64, len(pairs))
	for k, pc := range pairs {
		edge[k] = p.pairScore(pc[0], pc[1])
	}
	const maxScore = SlotWeight + ProxWeight + FlowWeight + CallWeight
	return edge, maxScore*RootFactor + 1
}

// pairScore scores candidate parent pv for child cv; lower is better.
func (p *Scorer) pairScore(pa, ca uint64) float64 {
	pv, cv := p.byAddr[pa], p.byAddr[ca]
	slot, prox := 0.5, 0.5
	if pv != nil && cv != nil {
		slot = p.slotTerm(pv, cv)
		prox = proxTerm(pv, cv)
	}
	flow := 1 / float64(1+p.idx.flow[[2]uint64{pa, ca}])
	call := 1 / float64(1+p.idx.call[[2]uint64{pa, ca}])
	return SlotWeight*slot + ProxWeight*prox + FlowWeight*flow + CallWeight*call
}

// slotTerm is 1 minus the fraction of position-wise shared slot targets
// over the overlapping prefix. Slots holding the pure-virtual stub are
// excluded from both numerator and denominator: a pure slot in the
// parent is satisfied by any override, so it neither confirms nor
// refutes inheritance.
func (p *Scorer) slotTerm(pv, cv *vtable.VTable) float64 {
	n := min(len(pv.Slots), len(cv.Slots))
	shared, denom := 0, 0
	for i := 0; i < n; i++ {
		if pv.Slots[i] == p.purecall || cv.Slots[i] == p.purecall {
			continue
		}
		denom++
		if pv.Slots[i] == cv.Slots[i] {
			shared++
		}
	}
	if denom == 0 {
		return 0.5
	}
	return 1 - float64(shared)/float64(denom)
}

// proxTerm is the interface-size gap |slots(c)−slots(p)| relative to the
// child, clamped to 1. Among admissible ancestors with similar overlap,
// the direct parent is the closest in size.
func proxTerm(pv, cv *vtable.VTable) float64 {
	if len(cv.Slots) == 0 {
		return 0.5
	}
	gap := len(cv.Slots) - len(pv.Slots)
	if gap < 0 {
		gap = -gap
	}
	t := float64(gap) / float64(len(cv.Slots))
	if t > 1 {
		return 1
	}
	return t
}
