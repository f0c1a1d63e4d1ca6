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
// Fusion is a plain weighted sum, fused(e) = Σᵖ wₚ·scoreₚ(e), with one
// load-bearing special case: when exactly one provider has a nonzero
// weight and that weight is 1, Fuse returns that provider's Scores
// unchanged. This makes the default configuration (SLM at weight 1) and
// the {slm:1, subtype:0} ablation bit-identical to the pre-provider
// sweep — not merely numerically close.
package evidence

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/slm"
)

// Provider names. The spellings appear in CLI flags, fusion-weight maps,
// observability stage rows, and (for non-default configurations) the
// hierarchy-section snapshot canon — they must not change.
const (
	// NameSLM is the behavioral SLM/KL divergence sweep.
	NameSLM = "slm"
	// NameSubtype is the constraint-based structural subtyping scorer.
	NameSubtype = "subtype"
)

// KnownNames lists every provider the analysis can construct, in
// canonical order.
func KnownNames() []string { return []string{NameSLM, NameSubtype} }

// Known reports whether name is a constructible provider.
func Known(name string) bool {
	return name == NameSLM || name == NameSubtype
}

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
	// measured over one word set to rank). Nil when no SLM provider is
	// enabled.
	Words [][]int32
	// Models holds each member's frozen SLM, parallel to Types. Nil
	// when no SLM provider is enabled.
	Models []*slm.Frozen
	// ModelOf resolves a member address to its frozen SLM (the map-free
	// per-pair accessor). Nil when no SLM provider is enabled.
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

// Fuse combines the providers' scores into the single edge score the
// arborescence solve consumes: fused.Edge[k] = Σᵢ weights[i]·scores[i].Edge[k]
// and fused.Root = Σᵢ weights[i]·scores[i].Root. When exactly one
// provider has a nonzero weight and that weight is 1, the provider's
// Scores is returned unchanged, making the
// single-provider path bit-identical to running that provider alone.
// scores and weights are parallel; callers guarantee at least one
// nonzero weight.
func Fuse(scores []*Scores, weights []float64) *Scores {
	live := -1
	for i, w := range weights {
		if w == 0 {
			continue
		}
		if live >= 0 {
			live = -2
			break
		}
		live = i
	}
	if live >= 0 && weights[live] == 1 {
		return scores[live]
	}
	out := &Scores{}
	for i, s := range scores {
		w := weights[i]
		if w == 0 {
			continue
		}
		if out.Edge == nil {
			out.Edge = make([]float64, len(s.Edge))
		}
		for k, e := range s.Edge {
			out.Edge[k] += w * e
		}
		out.Root += w * s.Root
	}
	return out
}

// ParseNames parses the CLI provider-list spelling ("slm,subtype").
// Empty input returns nil — the caller's default. Unknown and duplicate
// names are errors.
func ParseNames(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var names []string
	seen := map[string]bool{}
	for _, n := range strings.Split(s, ",") {
		n = strings.TrimSpace(n)
		if !Known(n) {
			return nil, fmt.Errorf("unknown evidence provider %q (want a comma list of %s)",
				n, strings.Join(KnownNames(), ", "))
		}
		if seen[n] {
			return nil, fmt.Errorf("evidence provider %q named twice", n)
		}
		seen[n] = true
		names = append(names, n)
	}
	return names, nil
}

// ParseWeights parses the CLI fusion-weight spelling
// ("slm=1,subtype=5"). Empty input returns nil — per-provider
// defaults. Name validity against the enabled provider set is the
// analysis's job (the weights may be parsed before the provider list).
func ParseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("fusion weight %q is not name=weight", kv)
		}
		name = strings.TrimSpace(name)
		if !Known(name) {
			return nil, fmt.Errorf("fusion weight names unknown provider %q (want %s)",
				name, strings.Join(KnownNames(), ", "))
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("fusion weight for %q given twice", name)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("fusion weight for %q: %v", name, err)
		}
		out[name] = w
	}
	return out, nil
}
