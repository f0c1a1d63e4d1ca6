package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/snapshot"
)

// TestFingerprintCompat pins the graph-derived snapshot fingerprints to
// the hand-maintained scheme existing .rsnap caches were written under
// (one fingerprint per section, hashing "tag|canon" with the canon laid
// out exactly as the pre-pipeline core formatted it, plus the sparse
// sweep's " sweep=sparse" and the dot-product KL kernel's " kl=dot"
// hierarchy markers). Any divergence silently invalidates every user's
// cache, so this test recomputes the bytes from scratch and compares.
func TestFingerprintCompat(t *testing.T) {
	legacy := func(stage, canon string) [32]byte {
		return sha256.Sum256([]byte(stage + "|" + canon))
	}
	check := func(name string, cfg Config) {
		t.Helper()
		cfg = cfg.withDefaults()
		fps := cfg.graph(nil).Fingerprints()
		tr := cfg.Trace.WithDefaults()
		want := [pipeline.NumSections][32]byte{
			pipeline.SecExtraction: legacy("extract", fmt.Sprintf(
				"paths=%d steps=%d unroll=%d window=%d tracelen=%d structural=%v,%v,%v,%v,%v",
				tr.MaxPaths, tr.MaxSteps, tr.MaxUnroll, tr.Window, tr.MaxTraceLen,
				cfg.Structural.DisableSharedSlots, cfg.Structural.DisableInstanceInstalls,
				cfg.Structural.DisableCtorCalls, cfg.Structural.DisableSizeRule,
				cfg.Structural.DisablePurecallRule)),
			pipeline.SecModels: legacy("model", fmt.Sprintf("depth=%d", cfg.SLMDepth)),
			pipeline.SecHierarchy: legacy("hier", fmt.Sprintf(
				"metric=%d rootw=%.17g enumlimit=%d enumeps=%.17g sweep=sparse kl=dot",
				cfg.Metric, cfg.RootWeightFactor, cfg.EnumLimit, cfg.EnumEps)),
		}
		for sec := pipeline.Section(0); sec < pipeline.NumSections; sec++ {
			if fps[sec] != want[sec] {
				t.Errorf("%s: %s fingerprint diverged from the pinned scheme", name, sec.Tag())
			}
		}
	}
	check("default", DefaultConfig())

	ablated := DefaultConfig()
	ablated.SLMDepth = 3
	ablated.Structural.DisableCtorCalls = true
	ablated.Trace.MaxPaths = 7
	ablated.EnumLimit = 5
	ablated.RootWeightFactor = 2.5
	check("ablated", ablated)

	// Workers, Pool, and the observer must not influence the key.
	a := DefaultConfig().withDefaults()
	b := a
	b.Workers = 17
	b.Obs = obs.NewBus()
	if a.graph(nil).Fingerprints() != b.graph(nil).Fingerprints() {
		t.Error("workers/observer leaked into the snapshot fingerprints")
	}
}

// TestEvidenceFingerprints pins the fingerprint model of the evidence
// layer: spelling out the default provider set must not change any
// bytes, enabling the subtype provider must re-key the hierarchy section
// alone (the model and extraction sections are evidence-independent),
// and the fusion weights must be part of that key.
func TestEvidenceFingerprints(t *testing.T) {
	def := DefaultConfig().withDefaults().graph(nil).Fingerprints()

	explicit := DefaultConfig()
	explicit.Evidence = []string{"slm"}
	explicit.FuseWeights = map[string]float64{"slm": 1}
	if explicit.withDefaults().graph(nil).Fingerprints() != def {
		t.Error("spelling out the default evidence configuration changed the snapshot fingerprints")
	}

	fused := DefaultConfig()
	fused.Evidence = []string{"slm", "subtype"}
	ffps := fused.withDefaults().graph(nil).Fingerprints()
	if ffps[pipeline.SecExtraction] != def[pipeline.SecExtraction] || ffps[pipeline.SecModels] != def[pipeline.SecModels] {
		t.Error("enabling the subtype provider re-keyed the extraction/models sections; staged reuse lost")
	}
	if ffps[pipeline.SecHierarchy] == def[pipeline.SecHierarchy] {
		t.Error("fused and SLM-only configs share a hierarchy fingerprint; stale edge payloads would cross modes")
	}

	reweighted := fused
	reweighted.FuseWeights = map[string]float64{"subtype": 2}
	rfps := reweighted.withDefaults().graph(nil).Fingerprints()
	if rfps[pipeline.SecHierarchy] == ffps[pipeline.SecHierarchy] {
		t.Error("changing a fusion weight did not change the hierarchy fingerprint")
	}
	if rfps[pipeline.SecExtraction] != def[pipeline.SecExtraction] || rfps[pipeline.SecModels] != def[pipeline.SecModels] {
		t.Error("fusion weights leaked into the extraction/models fingerprints")
	}
}

// TestGraphLevels pins the section→reuse-level correspondence the driver
// relies on when skipping restored stages.
func TestGraphLevels(t *testing.T) {
	g := DefaultConfig().withDefaults().graph(nil)
	for _, st := range g.Stages() {
		if st.Section.Level() < snapshot.LevelExtraction || st.Section.Level() > snapshot.LevelHierarchy {
			t.Errorf("stage %s: section level %d outside the snapshot reuse range", st.Name, st.Section.Level())
		}
	}
}
