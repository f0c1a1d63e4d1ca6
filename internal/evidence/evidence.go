// Package evidence defines the pluggable edge-evidence abstraction
// behind the hierarchy solve: a Provider scores one family's
// structurally-admissible (parent, child) pairs, and Fuse combines the
// enabled providers' scores into the single weighted edge score the
// Edmonds arborescence consumes.
//
// The paper's pipeline has exactly one evidence source — the SLM/KL
// behavioral sweep (internal/evidence/slmkl) — but its structural
// analysis only prunes candidate pairs, so hard cases that erase
// behavioral evidence (devirtualized call sites, COMDAT-folded methods,
// partially inlined constructors) leave the solve weighing ties. The
// constraint-based subtyping scorer (internal/evidence/subtype) is a
// second source in the style of Noonan et al.'s machine-code type
// inference and BinSub: vtable-slot overlap, vtable-install flow, and
// caller/callee structure.
//
// Contract, shared by every provider:
//
//   - Scores.Edge is element-wise parallel to FamilyInput.Pairs, lower
//     is a more likely child→parent edge.
//   - Scores.Root must be >= every Edge entry the provider can emit, so
//     the weighted sum preserves Heuristic 4.1 ("root edges are always
//     the worst choice") — each fused root weight dominates each fused
//     pair weight term by term.
//   - Score must be deterministic at any worker count: parallel sweeps
//     write index-owned slots and merge in a fixed order.
//
// Fusion is a weighted sum of the two providers the analysis runs:
// fused(e) = slm(e) + w·subtype(e). The paper's configuration runs the
// SLM provider alone, and its scores reach the solve untouched, so that
// configuration stays bit-identical to the pre-provider sweep.
package evidence

import (
	"context"

	"repro/internal/slm"
)

// Provider names. The spellings appear in the -evidence flag,
// observability stage rows, and the fused configuration's
// hierarchy-section snapshot canon — they must not change.
const (
	// NameSLM is the behavioral SLM/KL divergence sweep.
	NameSLM = "slm"
	// NameSubtype is the constraint-based structural subtyping scorer.
	NameSubtype = "subtype"
)

// FamilyInput is everything one provider invocation may read about a
// family. One FamilyInput is shared by every enabled provider, so the
// scores they return are element-wise comparable.
type FamilyInput struct {
	// Types lists the family members (vtable addresses), ascending — the
	// family order.
	Types []uint64
	// Pairs lists the structurally-admissible (parent, child) pairs in
	// the canonical layout: family order outer, candidate-parent order
	// inner. Scores.Edge is parallel to it.
	Pairs [][2]uint64
	// Words is the family's deduplicated word-set union, the SLM
	// provider's measurement domain (Remark 4.1: distances must be
	// measured over one word set to rank).
	Words [][]int32
	// Models holds each member's frozen SLM, parallel to Types.
	Models []*slm.Frozen
	// ModelOf resolves a member address to its frozen SLM (the map-free
	// per-pair accessor).
	ModelOf func(uint64) *slm.Frozen
}

// Scores is one provider's output for one family.
type Scores struct {
	// Edge scores FamilyInput.Pairs element-wise; lower is a more likely
	// child→parent edge.
	Edge []float64
	// Root is the provider's virtual-root edge weight; see the package
	// contract (Root >= max Edge).
	Root float64
}

// Provider is one edge-evidence backend.
type Provider interface {
	// Name returns the provider's stable identifier (NameSLM, ...).
	Name() string
	// Score computes one family's scores. It must be deterministic at
	// any worker count and safe for concurrent calls on distinct
	// families.
	Score(ctx context.Context, in *FamilyInput) (*Scores, error)
}

// Fuse combines the scores of the providers the analysis ran, SLM first.
// One provider passes through untouched (the same pointer, so the SLM
// scores reach the solve bit-identical); two give the SLM scores plus
// the subtype scores at weight w: fused.Edge[k] = slm.Edge[k] +
// w·subtype.Edge[k] and fused.Root = slm.Root + w·subtype.Root.
func Fuse(all []*Scores, w float64) *Scores {
	if len(all) == 1 {
		return all[0]
	}
	kl, sub := all[0], all[1]
	out := &Scores{Edge: make([]float64, len(kl.Edge)), Root: kl.Root + w*sub.Root}
	for k, e := range kl.Edge {
		out.Edge[k] = e + w*sub.Edge[k]
	}
	return out
}
