// Package slmkl rehosts the paper's behavioral evidence source — the
// per-family SLM divergence sweep (§4.3) — behind the evidence.Provider
// interface. It keeps the original in-line sweep's chunk grains, pair
// layout and counters, and derives each member's word distribution with
// slm.DistanceCalculator, whose gram-factored kernel reproduces the
// per-word query sums bit for bit — so its output is bit-identical to the
// pre-provider pipeline and the equivalence pins in internal/eval hold
// by construction, not by tolerance.
package slmkl

import (
	"context"

	"repro/internal/evidence"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/slm"
)

// Fan-out grains for the chunked sweeps (pool.ForEachChunk): each claimed
// range must amortize the shared index counter over enough work without
// starving workers on small families. The values predate the provider
// split; grain choice never affects scores (every slot is index-owned).
const (
	// modelGrain groups word-distribution derivations, one
	// slm.DistanceCalculator.Precompute per member; each derivation reads
	// the family's gram table, interned before the fan-out.
	modelGrain = 8
	// pairGrain groups admissible-pair divergence reductions.
	pairGrain = 32
)

// RootWeightFactor scales the virtual-root weight relative to the
// family's largest pairwise distance; it exceeds 1 so that being a derived
// type is always preferred (Heuristic 4.1). The hierarchy canon renders it.
const RootWeightFactor float64 = 8

// Config parameterizes the sweep. Metric is behavioral (it appears in the
// hierarchy canon); the rest only shape execution.
type Config struct {
	// Metric selects the pairwise distance (DKL by default; JS variants
	// for the §6.4 ablation).
	Metric slm.Metric
	// Pool lends the sweep's fan-outs their helpers (see internal/pool);
	// nil runs the sweep serially.
	Pool *pool.Shared
	// Obs, when non-nil, receives the sweep's pair counters and batch
	// spans. Results are unaffected.
	Obs *obs.Bus
}

// Provider is the SLM/KL evidence provider.
type Provider struct {
	cfg Config
}

// New returns the provider.
func New(cfg Config) *Provider { return &Provider{cfg: cfg} }

// Name implements evidence.Provider.
func (p *Provider) Name() string { return evidence.NameSLM }

// Score runs the divergence sweep for one family. Each member's word
// distribution over the family's shared word set is derived exactly once
// (the DistanceCalculator memoizes per model and queries each model once
// per distinct gram of the word set); then the sweep reduces the cached
// distributions over in.Pairs in deterministically-owned chunks.
func (p *Provider) Score(ctx context.Context, in *evidence.FamilyInput) (*evidence.Scores, error) {
	cfg := p.cfg
	calc := slm.NewDistanceCalculator(cfg.Metric, in.Words)
	calc.SetObserver(cfg.Obs)
	n := len(in.Types)
	calc.Reserve(in.Models)
	if err := pool.ForEachChunk(ctx, cfg.Pool, n, modelGrain, func(lo, hi int) {
		for _, m := range in.Models[lo:hi] {
			calc.Precompute(m)
		}
	}); err != nil {
		return nil, err
	}
	out := &evidence.Scores{Edge: make([]float64, len(in.Pairs))}
	if err := pool.ForEachChunk(ctx, cfg.Pool, len(in.Pairs), pairGrain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			out.Edge[k] = calc.Distance(in.ModelOf(in.Pairs[k][0]), in.ModelOf(in.Pairs[k][1]))
		}
	}); err != nil {
		return nil, err
	}
	cfg.Obs.Add(obs.CntDistPairs, int64(len(in.Pairs)))
	cfg.Obs.Add(obs.CntDistPairsPruned, int64(n*(n-1)-len(in.Pairs)))
	// PairBound ≥ the largest distance over all n(n-1) ordered pairs, so
	// Heuristic 4.1's "root edges are always the worst choice" ordering
	// holds although only the admissible pairs were scored.
	out.Root = calc.PairBound(in.Models)*RootWeightFactor + 1
	return out, nil
}
