package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compiler"
	"repro/internal/snapshot"
)

// cacheFile returns the single snapshot path under dir.
func cacheFile(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir: %d entries, err %v", len(entries), err)
	}
	return filepath.Join(dir, entries[0].Name())
}

// TestEvidenceSnapshotCompat proves that snapshots written before the
// evidence-provider refactor stay valid: a default SLM-only run today
// writes the same key bytes the pre-refactor core did (pinned by
// TestFingerprintCompat), so re-encoding today's snapshot stands in for a
// pre-refactor cache file. It must still validate and warm-restore the
// whole pipeline under the default configuration, while enabling the
// subtype provider must NOT claim the cached hierarchy section — its
// canon is different — yet still salvage the extraction and model
// sections.
func TestEvidenceSnapshotCompat(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	cold := analyzeCached(t, img, cfg)
	path := cacheFile(t, cfg.CacheDir)

	snap, err := snapshot.Load(path)
	if err != nil {
		t.Fatalf("loading written snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("re-encoding: %v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	warm := analyzeCached(t, img, cfg)
	if warm.SnapshotReuse != snapshot.LevelHierarchy {
		t.Fatalf("re-encoded snapshot reused level %d, want full hierarchy restore", warm.SnapshotReuse)
	}
	assertResultsEqual(t, "pre-refactor snapshot warm restore", cold, warm)

	// A fused configuration must key its hierarchy section apart from the
	// cached SLM-only one (different Dist/edge payload) but still reuse
	// the evidence-independent extraction and model sections.
	fusedCfg := cfg
	fusedCfg.Evidence = []string{"slm", "subtype"}
	fused := analyzeCached(t, img, fusedCfg)
	if fused.SnapshotReuse != snapshot.LevelModels {
		t.Fatalf("fused config reused level %d, want exactly the model sections", fused.SnapshotReuse)
	}
	// The fused run overwrote the per-image slot under its own key; it
	// must warm-restore fully on the next fused run, while the default
	// configuration now sees a foreign hierarchy section and falls back
	// to the shared model sections — the two canons never cross-restore.
	if rewarm := analyzeCached(t, img, fusedCfg); rewarm.SnapshotReuse != snapshot.LevelHierarchy {
		t.Errorf("fused config did not warm-restore from its own snapshot: level %d", rewarm.SnapshotReuse)
	}
	if back := analyzeCached(t, img, cfg); back.SnapshotReuse != snapshot.LevelModels {
		t.Errorf("default config reused level %d from a fused snapshot, want exactly the model sections", back.SnapshotReuse)
	}
}
