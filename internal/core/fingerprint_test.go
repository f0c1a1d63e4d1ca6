package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// TestFingerprintCompat pins the snapshot fingerprints to
// the hand-maintained scheme existing .rsnap caches were written under
// (one fingerprint per section, hashing "tag|canon" with the canon laid
// out exactly as the pre-pipeline core formatted it, plus the sparse
// sweep's " sweep=sparse" and the dot-product KL kernel's " kl=dot"
// hierarchy markers; the hierarchy canon lost its "enumlimit" term with
// the co-optimal search's limit). Any divergence silently invalidates
// every user's cache, so this test recomputes the bytes from scratch and
// compares.
func TestFingerprintCompat(t *testing.T) {
	legacy := func(stage, canon string) [32]byte {
		return sha256.Sum256([]byte(stage + "|" + canon))
	}
	check := func(name string, cfg Config) {
		t.Helper()
		cfg = cfg.withDefaults()
		fps := cfg.fingerprints()
		tr := cfg.Trace.WithDefaults()
		want := [snapshot.NumSections][32]byte{
			snapshot.LevelExtraction - 1: legacy("extract", fmt.Sprintf(
				"paths=%d steps=%d unroll=%d window=%d tracelen=%d structural=%v,%v,%v,%v,%v",
				tr.MaxPaths, tr.MaxSteps, tr.MaxUnroll, tr.Window, tr.MaxTraceLen,
				cfg.Structural.DisableSharedSlots, cfg.Structural.DisableInstanceInstalls,
				cfg.Structural.DisableCtorCalls, cfg.Structural.DisableSizeRule,
				cfg.Structural.DisablePurecallRule)),
			snapshot.LevelModels - 1: legacy("model", fmt.Sprintf("depth=%d", cfg.SLMDepth)),
			snapshot.LevelHierarchy - 1: legacy("hier", fmt.Sprintf(
				"metric=%d rootw=%.17g enumeps=%.17g sweep=sparse kl=dot",
				cfg.Metric, cfg.RootWeightFactor, cfg.EnumEps)),
		}
		for i := range fps {
			if fps[i] != want[i] {
				t.Errorf("%s: %s fingerprint diverged from the pinned scheme", name, snapshot.Tag(i+1))
			}
		}
	}
	check("default", DefaultConfig())

	ablated := DefaultConfig()
	ablated.SLMDepth = 3
	ablated.Structural.DisableCtorCalls = true
	ablated.Trace.MaxPaths = 7
	ablated.EnumEps = 1e-6
	ablated.RootWeightFactor = 2.5
	check("ablated", ablated)

	// Workers, Pool, and the observer must not influence the key.
	a := DefaultConfig().withDefaults()
	b := a
	b.Workers = 17
	b.Obs = obs.NewBus()
	if a.fingerprints() != b.fingerprints() {
		t.Error("workers/observer leaked into the snapshot fingerprints")
	}
}

// TestEvidenceFingerprints pins the fingerprint model of the evidence
// layer: spelling out the default provider set must not change any
// bytes, enabling the subtype provider must re-key the hierarchy section
// alone (the model and extraction sections are evidence-independent),
// and the fusion weights must be part of that key.
func TestEvidenceFingerprints(t *testing.T) {
	const ext, mod, hier = snapshot.LevelExtraction - 1, snapshot.LevelModels - 1, snapshot.LevelHierarchy - 1
	def := DefaultConfig().withDefaults().fingerprints()

	explicit := DefaultConfig()
	explicit.Evidence = []string{"slm"}
	explicit.FuseWeights = map[string]float64{"slm": 1}
	if explicit.withDefaults().fingerprints() != def {
		t.Error("spelling out the default evidence configuration changed the snapshot fingerprints")
	}

	fused := DefaultConfig()
	fused.Evidence = []string{"slm", "subtype"}
	ffps := fused.withDefaults().fingerprints()
	if ffps[ext] != def[ext] || ffps[mod] != def[mod] {
		t.Error("enabling the subtype provider re-keyed the extraction/models sections; staged reuse lost")
	}
	if ffps[hier] == def[hier] {
		t.Error("fused and SLM-only configs share a hierarchy fingerprint; stale edge payloads would cross modes")
	}

	reweighted := fused
	reweighted.FuseWeights = map[string]float64{"subtype": 2}
	rfps := reweighted.withDefaults().fingerprints()
	if rfps[hier] == ffps[hier] {
		t.Error("changing a fusion weight did not change the hierarchy fingerprint")
	}
	if rfps[ext] != def[ext] || rfps[mod] != def[mod] {
		t.Error("fusion weights leaked into the extraction/models fingerprints")
	}
}

// TestFingerprintLiterals pins DefaultConfig()'s snapshot fingerprints,
// in section order (extract, model, hier), to the literal bytes every
// existing default-configuration .rsnap file was keyed with. The hier
// literal is sha256("hier|metric=0 rootw=8 enumeps=1.0000000000000001e-09
// sweep=sparse kl=dot").
// TestFingerprintCompat recomputes them with the code's own format
// strings; only a literal catches a refactor that shifts both together.
func TestFingerprintLiterals(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	want := []string{
		"c5090f2e98ab045ae3444b8412aa76aa3ba428a9f0bf76bdb657b2417a4927d1",
		"39b3d79e1bdc8b1160e26db94f1f2802048c3fe3b0e5d10d67dfa9359e240f3e",
		"bf945d0dcf693f513bf3f295eb1a532a52a963002cad484564262e2514fa08e6",
	}
	fps := DefaultConfig().withDefaults().snapshotKey(img).FPs
	if len(fps) != len(want) {
		t.Fatalf("%d sections, want %d", len(fps), len(want))
	}
	for i, fp := range fps {
		if got := hex.EncodeToString(fp[:]); got != want[i] {
			t.Errorf("section %d fingerprint = %s, want %s", i, got, want[i])
		}
	}
}

// TestGraphLevels pins the stage list the driver relies on when skipping
// restored stages: every stage is named and persists under a snapshot
// section, and levels never decrease, so a restore at level L covers
// exactly a prefix of the list.
func TestGraphLevels(t *testing.T) {
	prev := snapshot.LevelExtraction
	for _, st := range stages {
		if st.name == "" {
			t.Error("unnamed stage")
		}
		if st.level < snapshot.LevelExtraction || st.level > snapshot.LevelHierarchy {
			t.Errorf("stage %s: section level %d outside the snapshot reuse range", st.name, st.level)
		}
		if st.level < prev {
			t.Errorf("stage %s: level %d after %d breaks the validity chain", st.name, st.level, prev)
		}
		prev = st.level
	}
}

// TestRunStages checks the driver loop: stages run in declared order,
// skipped stages are recorded with their status (cached when the restore
// level covers their section, off when behavioral under a structural-only
// run), and the first stage error aborts the run.
func TestRunStages(t *testing.T) {
	var order []string
	mk := func(name string, level int, behavioral, fail bool) stage {
		return stage{name: name, level: level, behavioral: behavioral,
			run: func(context.Context, *Result, Config) error {
				order = append(order, name)
				if fail {
					return fmt.Errorf("%s exploded", name)
				}
				return nil
			}}
	}
	list := []stage{
		mk("a", snapshot.LevelExtraction, false, false),
		mk("b", snapshot.LevelModels, true, false),
		mk("c", snapshot.LevelHierarchy, false, false),
		mk("d", snapshot.LevelHierarchy, true, false),
	}
	run := func(useSLM bool, level int) string {
		t.Helper()
		order = nil
		bus := obs.NewBus()
		if err := runStages(context.Background(), list, &Result{}, Config{UseSLM: useSLM, Obs: bus}, level); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(order)
		for _, st := range bus.Report().Stages {
			got += fmt.Sprintf(" %s/%s:%s", st.Name, st.Section, st.Status)
		}
		return got
	}
	for _, c := range []struct {
		useSLM bool
		level  int
		want   string
	}{
		{true, snapshot.LevelNone, "[a b c d] a/extract:ran b/model:ran c/hier:ran d/hier:ran"},
		{true, snapshot.LevelModels, "[c d] a/extract:cached b/model:cached c/hier:ran d/hier:ran"},
		{false, snapshot.LevelNone, "[a c] a/extract:ran b/model:off c/hier:ran d/hier:off"},
	} {
		if got := run(c.useSLM, c.level); got != c.want {
			t.Errorf("useSLM=%v level=%d:\n got %s\nwant %s", c.useSLM, c.level, got, c.want)
		}
	}

	// A failing stage aborts and later stages never run.
	order = nil
	list[1] = mk("boom", snapshot.LevelModels, false, true)
	err := runStages(context.Background(), list, &Result{}, Config{}, snapshot.LevelNone)
	if err == nil || err.Error() != "boom exploded" {
		t.Fatalf("err = %v", err)
	}
	if fmt.Sprint(order) != "[a boom]" {
		t.Fatalf("order = %v, want [a boom]", order)
	}
}
