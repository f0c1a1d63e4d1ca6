package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/evidence"
	"repro/internal/evidence/slmkl"
	"repro/internal/evidence/subtype"
	"repro/internal/obs"
)

// evidenceNames resolves the enabled provider set: cfg.Evidence, or the
// paper's SLM-only default when unset.
func (c Config) evidenceNames() []string {
	if len(c.Evidence) == 0 {
		return []string{evidence.NameSLM}
	}
	return c.Evidence
}

// hasSLM reports whether the SLM provider is enabled — the gate for
// building family word sets and scorer tables.
func (c Config) hasSLM() bool {
	for _, n := range c.evidenceNames() {
		if n == evidence.NameSLM {
			return true
		}
	}
	return false
}

// fuseWeight resolves one provider's fusion weight: the explicit
// FuseWeights entry, or the provider's default (slm: 1, subtype:
// subtype.DefaultWeight).
func (c Config) fuseWeight(name string) float64 {
	if w, ok := c.FuseWeights[name]; ok {
		return w
	}
	switch name {
	case evidence.NameSubtype:
		return subtype.DefaultWeight
	default:
		return 1
	}
}

// evidenceDefault reports whether the evidence configuration is the
// paper's default — the SLM provider alone at weight 1. Only non-default
// configurations mark the hierarchy fingerprint, so the default keeps
// the legacy canon bytes and pre-refactor snapshots stay valid.
func (c Config) evidenceDefault() bool {
	names := c.evidenceNames()
	return len(names) == 1 && names[0] == evidence.NameSLM && c.fuseWeight(evidence.NameSLM) == 1
}

// evidenceCanon renders the non-default evidence configuration for the
// hierarchy-section fingerprint: each provider with its resolved fusion
// weight, plus the behavioral term weights of config-bearing providers.
func (c Config) evidenceCanon() string {
	parts := make([]string, 0, len(c.evidenceNames()))
	for _, name := range c.evidenceNames() {
		p := fmt.Sprintf("%s:%.17g", name, c.fuseWeight(name))
		if name == evidence.NameSubtype {
			p += subtype.DefaultConfig().Canon()
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, ",")
}

// validateEvidence rejects inconsistent evidence configurations up
// front, before any stage runs or a snapshot key is derived.
func (c Config) validateEvidence() error {
	names := c.evidenceNames()
	seen := map[string]bool{}
	for _, n := range names {
		if !evidence.Known(n) {
			return fmt.Errorf("core: unknown evidence provider %q (want %s)",
				n, strings.Join(evidence.KnownNames(), ", "))
		}
		if seen[n] {
			return fmt.Errorf("core: evidence provider %q enabled twice", n)
		}
		seen[n] = true
	}
	weightNames := make([]string, 0, len(c.FuseWeights))
	for n := range c.FuseWeights {
		weightNames = append(weightNames, n)
	}
	sort.Strings(weightNames)
	for _, n := range weightNames {
		if !seen[n] {
			return fmt.Errorf("core: fusion weight names provider %q, which is not enabled (enabled: %s)",
				n, strings.Join(names, ", "))
		}
		w := c.FuseWeights[n]
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return fmt.Errorf("core: fusion weight for %q must be finite and non-negative, got %v", n, w)
		}
	}
	nonzero := false
	for _, n := range names {
		if c.fuseWeight(n) != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		return fmt.Errorf("core: every fusion weight is zero — no evidence would reach the solve")
	}
	return nil
}

// buildEvidence is the evidence stage body: construct the enabled
// providers and their fusion weights, in configuration order. The SLM
// provider is a stateless adapter around the divergence sweep; the
// subtype provider indexes the structural observations here, once per
// analysis, on the shared pool.
func (r *Result) buildEvidence(ctx context.Context, cfg Config) error {
	names := cfg.evidenceNames()
	r.providers = make([]evidence.Provider, 0, len(names))
	r.provWeights = make([]float64, 0, len(names))
	for _, name := range names {
		switch name {
		case evidence.NameSLM:
			r.providers = append(r.providers, slmkl.New(slmkl.Config{
				Metric:           cfg.Metric,
				RootWeightFactor: cfg.RootWeightFactor,
				Pool:             cfg.pool,
				Obs:              cfg.Obs,
			}))
		case evidence.NameSubtype:
			p, err := subtype.New(ctx, subtype.DefaultConfig(), subtype.Image{
				VTables:     r.VTables,
				Purecall:    r.Structural.Purecall,
				Structs:     r.Tracelets.Structs,
				InstallerOf: r.Structural.InstallerOf,
				FnVTables:   r.Tracelets.FnVTables,
			}, cfg.pool)
			if err != nil {
				return fmt.Errorf("core: building subtype evidence index: %w", err)
			}
			r.providers = append(r.providers, p)
		}
		r.provWeights = append(r.provWeights, cfg.fuseWeight(name))
	}
	r.provStats = make([]provStat, len(r.providers))
	cfg.Obs.Add(obs.CntEvidenceProviders, int64(len(r.providers)))
	return nil
}
