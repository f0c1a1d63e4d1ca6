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

// TestFingerprintCompat pins the snapshot fingerprints to the
// hand-maintained scheme existing .rsnap caches were written under (one
// fingerprint per section, hashing "tag|canon" with the canon laid out
// exactly as the pre-pipeline core formatted it — the extraction bounds
// and the five structural switches, all fixed now, included — plus the
// sparse sweep's " sweep=sparse" and the dot-product KL kernel's
// " kl=dot" hierarchy markers; the hierarchy canon lost its "enumlimit"
// term with the co-optimal search's limit). Any divergence silently
// invalidates every user's cache, so this test recomputes the bytes from
// scratch and compares.
func TestFingerprintCompat(t *testing.T) {
	legacy := func(stage, canon string) [32]byte {
		return sha256.Sum256([]byte(stage + "|" + canon))
	}
	check := func(name string, cfg Config) {
		t.Helper()
		cfg = cfg.withDefaults()
		fps := cfg.fingerprints()
		want := [snapshot.NumSections][32]byte{
			snapshot.LevelExtraction - 1: legacy("extract", fmt.Sprintf(
				"paths=64 steps=512 unroll=2 window=%d tracelen=128 structural=false,false,false,false,false",
				cfg.Window)),
			snapshot.LevelModels - 1: legacy("model", fmt.Sprintf("depth=%d", cfg.SLMDepth)),
			snapshot.LevelHierarchy - 1: legacy("hier", fmt.Sprintf(
				"metric=%d rootw=%.17g enumeps=%.17g sweep=sparse kl=dot",
				cfg.Metric, rootWeightFactor, enumEps)),
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
	ablated.Window = 5
	check("ablated", ablated)

	// Workers and the observer must not influence the key.
	a := DefaultConfig().withDefaults()
	b := a
	b.Workers = 17
	b.Obs = obs.NewBus()
	if a.fingerprints() != b.fingerprints() {
		t.Error("workers/observer leaked into the snapshot fingerprints")
	}
}

// TestEvidenceFingerprints pins the fingerprint model of the evidence
// switch: fusing the subtype scores in must re-key the hierarchy
// section alone (the model and extraction sections are
// evidence-independent).
func TestEvidenceFingerprints(t *testing.T) {
	const ext, mod, hier = snapshot.LevelExtraction - 1, snapshot.LevelModels - 1, snapshot.LevelHierarchy - 1
	def := DefaultConfig().withDefaults().fingerprints()

	fused := DefaultConfig()
	fused.Subtype = true
	ffps := fused.withDefaults().fingerprints()
	if ffps[ext] != def[ext] || ffps[mod] != def[mod] {
		t.Error("enabling the subtype scores re-keyed the extraction/models sections; staged reuse lost")
	}
	if ffps[hier] == def[hier] {
		t.Error("fused and SLM-only configs share a hierarchy fingerprint; stale edge payloads would cross modes")
	}
}

// TestFingerprintLiterals pins DefaultConfig()'s snapshot fingerprints,
// in section order (extract, model, hier), to the literal bytes every
// existing default-configuration .rsnap file was keyed with. The hier
// literal is sha256("hier|metric=0 rootw=8 enumeps=1.0000000000000001e-09
// sweep=sparse kl=dot").
// TestFingerprintCompat recomputes them with the code's own format
// strings; only a literal catches a refactor that shifts both together.
// Two non-default literals pin the canon's variable parts: the extract
// section at window 5, and the hier section with the subtype scores
// fused in (its term weights render as "{slot=1 prox=0.25 flow=0.5
// call=0.5 root=8}").
func TestFingerprintLiterals(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	check := func(name string, cfg Config, section int, want string) {
		t.Helper()
		fp := cfg.withDefaults().snapshotKey(img).FPs[section]
		if got := hex.EncodeToString(fp[:]); got != want {
			t.Errorf("%s: section %d fingerprint = %s, want %s", name, section, got, want)
		}
	}
	for i, want := range []string{
		"c5090f2e98ab045ae3444b8412aa76aa3ba428a9f0bf76bdb657b2417a4927d1",
		"39b3d79e1bdc8b1160e26db94f1f2802048c3fe3b0e5d10d67dfa9359e240f3e",
		"bf945d0dcf693f513bf3f295eb1a532a52a963002cad484564262e2514fa08e6",
	} {
		check("default", DefaultConfig(), i, want)
	}

	window := DefaultConfig()
	window.Window = 5
	check("window 5", window, snapshot.LevelExtraction-1,
		"934e8053894a2fb57275bea2affa3e13df89c917c021b72c0d5a34b6d5c4235b")

	fused := DefaultConfig()
	fused.Subtype = true
	check("slm+subtype", fused, snapshot.LevelHierarchy-1,
		"b818588631c36903c077ea62962a3001e2000e4fddac19311a5d5b0c6f51ce0b")
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
// skipped stages are recorded with their status (cached on a warm run,
// off when behavioral under a structural-only run), and the first stage
// error aborts the run.
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
	run := func(useSLM, warm bool) string {
		t.Helper()
		order = nil
		bus := obs.NewBus()
		if err := runStages(context.Background(), list, &Result{}, Config{UseSLM: useSLM, Obs: bus}, warm); err != nil {
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
		warm   bool
		want   string
	}{
		{true, false, "[a b c d] a/extract:ran b/model:ran c/hier:ran d/hier:ran"},
		{true, true, "[] a/extract:cached b/model:cached c/hier:cached d/hier:cached"},
		{false, false, "[a c] a/extract:ran b/model:off c/hier:ran d/hier:off"},
	} {
		if got := run(c.useSLM, c.warm); got != c.want {
			t.Errorf("useSLM=%v warm=%v:\n got %s\nwant %s", c.useSLM, c.warm, got, c.want)
		}
	}

	// A failing stage aborts and later stages never run.
	order = nil
	list[1] = mk("boom", snapshot.LevelModels, false, true)
	err := runStages(context.Background(), list, &Result{}, Config{}, false)
	if err == nil || err.Error() != "boom exploded" {
		t.Fatalf("err = %v", err)
	}
	if fmt.Sprint(order) != "[a boom]" {
		t.Fatalf("order = %v, want [a boom]", order)
	}
}
