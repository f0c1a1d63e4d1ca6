package core

import (
	"context"
	"fmt"

	"repro/internal/evidence"
	"repro/internal/evidence/slmkl"
	"repro/internal/evidence/subtype"
	"repro/internal/obs"
)

// evidenceCanon renders the fused evidence configuration for the
// hierarchy-section fingerprint: each provider with its fusion weight,
// plus the subtype provider's fixed term weights. The bytes are the ones
// every fused snapshot was keyed with.
func evidenceCanon() string {
	return fmt.Sprintf("%s:1,%s:%.17g{slot=%.17g prox=%.17g flow=%.17g call=%.17g root=%.17g}",
		evidence.NameSLM, evidence.NameSubtype, float64(subtype.DefaultWeight),
		subtype.SlotWeight, subtype.ProxWeight, subtype.FlowWeight,
		subtype.CallWeight, subtype.RootFactor)
}

// buildEvidence is the evidence stage body: construct the SLM provider
// and, with cfg.Subtype, the subtype provider after it. The SLM provider
// is a stateless adapter around the divergence sweep; the subtype
// provider indexes the structural observations here, once per analysis,
// on the shared pool.
func (r *Result) buildEvidence(ctx context.Context, cfg Config) error {
	r.providers = []evidence.Provider{slmkl.New(slmkl.Config{
		Metric: cfg.Metric,
		Pool:   cfg.pool,
		Obs:    cfg.Obs,
	})}
	if cfg.Subtype {
		p, err := subtype.New(ctx, subtype.Image{
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
	r.provStats = make([]provStat, len(r.providers))
	cfg.Obs.Add(obs.CntEvidenceProviders, int64(len(r.providers)))
	return nil
}
