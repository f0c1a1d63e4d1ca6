// Package subtype is the constraint-based structural subtyping evidence
// provider: it scores child→parent edges from machine-code facts alone,
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
// Unlike the SLM provider, every signal here survives the hard cases
// that erase behavioral evidence — devirtualized monomorphic sites,
// COMDAT-folded methods, partially inlined constructors — because
// vtable layout and install order are what the compiler cannot remove.
//
// The provider is built once per analysis: an index over the objtrace
// structural observations is assembled on the shared worker pool
// (deterministically — per-chunk partial counts merged in chunk order,
// and counts are order-independent sums), then each family's Score is a
// read-only sweep over that index.
package subtype

import (
	"context"
	"fmt"

	"repro/internal/evidence"
	"repro/internal/objtrace"
	"repro/internal/pool"
	"repro/internal/vtable"
)

// DefaultWeight is the default fusion weight of this provider when it is
// enabled without an explicit -fuse-weights entry (the SLM provider
// defaults to 1). It is calibrated on the adversarial grid
// (internal/eval): the grid improves strictly on three devirtualized
// configurations with no regression anywhere for weights in roughly
// [3, 6], while above ~8 the slot-sharing term starts to overrule the
// divergence ranking on COMDAT-folded binaries (folded methods make
// unrelated vtables share entries). 5 sits in the middle of the safe
// window.
const DefaultWeight = 5

// structGrain groups objtrace observation sequences per claimed range of
// the index-building fan-out.
const structGrain = 64

// Config parameterizes the scorer. All fields are behavioral — they
// appear in the hierarchy-section snapshot canon via Canon.
type Config struct {
	// SlotWeight scales the vtable slot-overlap term.
	SlotWeight float64
	// ProxWeight scales the vtable size-proximity term.
	ProxWeight float64
	// FlowWeight scales the construction install-flow term.
	FlowWeight float64
	// CallWeight scales the parent-method call term.
	CallWeight float64
	// RootFactor scales the virtual-root weight relative to the largest
	// score the terms can produce; must be >= 1 so Heuristic 4.1 holds.
	RootFactor float64
}

// DefaultConfig returns the grid-calibrated term weights.
func DefaultConfig() Config {
	return Config{
		SlotWeight: 1,
		ProxWeight: 0.25,
		FlowWeight: 0.5,
		CallWeight: 0.5,
		RootFactor: 8,
	}
}

// Canon renders the behavioral configuration canonically for snapshot
// fingerprinting; equal configurations produce equal strings.
func (c Config) Canon() string {
	return fmt.Sprintf("{slot=%.17g prox=%.17g flow=%.17g call=%.17g root=%.17g}",
		c.SlotWeight, c.ProxWeight, c.FlowWeight, c.CallWeight, c.RootFactor)
}

// Image is the slice of the analysis the provider reads — the discovered
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

// Provider scores one image's families; build it once with New.
type Provider struct {
	cfg      Config
	byAddr   map[uint64]*vtable.VTable
	purecall uint64
	idx      *counts
}

// New indexes the image's structural observations and returns the
// provider. The fan-out draws its helpers from shared (nil runs it
// serially); per-chunk partial tallies land in chunk-owned slots and
// merge in chunk order, and the merged sums are order-independent, so the
// index is identical at any pool capacity.
func New(ctx context.Context, cfg Config, img Image, shared *pool.Shared) (*Provider, error) {
	p := &Provider{
		cfg:      cfg,
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
func (p *Provider) tally(part *counts, os objtrace.ObjStruct, img Image) {
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

// Name implements evidence.Provider.
func (p *Provider) Name() string { return evidence.NameSubtype }

// Score implements evidence.Provider: a read-only sweep of the index
// over the family's admissible pairs. Each pair is a few map lookups and
// one slot walk — no fan-out is worth it (the caller already runs
// families concurrently).
func (p *Provider) Score(_ context.Context, in *evidence.FamilyInput) (*evidence.Scores, error) {
	out := &evidence.Scores{Edge: make([]float64, len(in.Pairs))}
	for k, pc := range in.Pairs {
		out.Edge[k] = p.pairScore(pc[0], pc[1])
	}
	maxScore := p.cfg.SlotWeight + p.cfg.ProxWeight + p.cfg.FlowWeight + p.cfg.CallWeight
	out.Root = maxScore*p.cfg.RootFactor + 1
	return out, nil
}

// pairScore scores candidate parent pv for child cv; lower is better.
func (p *Provider) pairScore(pa, ca uint64) float64 {
	pv, cv := p.byAddr[pa], p.byAddr[ca]
	slot, prox := 0.5, 0.5
	if pv != nil && cv != nil {
		slot = p.slotTerm(pv, cv)
		prox = proxTerm(pv, cv)
	}
	flow := 1 / float64(1+p.idx.flow[[2]uint64{pa, ca}])
	call := 1 / float64(1+p.idx.call[[2]uint64{pa, ca}])
	return p.cfg.SlotWeight*slot + p.cfg.ProxWeight*prox +
		p.cfg.FlowWeight*flow + p.cfg.CallWeight*call
}

// slotTerm is 1 minus the fraction of position-wise shared slot targets
// over the overlapping prefix. Slots holding the pure-virtual stub are
// excluded from both numerator and denominator: a pure slot in the
// parent is satisfied by any override, so it neither confirms nor
// refutes inheritance.
func (p *Provider) slotTerm(pv, cv *vtable.VTable) float64 {
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
