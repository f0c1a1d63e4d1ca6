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
// evidence-scorer refactor stay valid: a default SLM-only run today
// writes the same key bytes the pre-refactor core did (pinned by
// TestFingerprintCompat), so re-encoding today's snapshot stands in for a
// pre-refactor cache file. It must still validate and warm-restore the
// whole pipeline under the default configuration, while enabling the
// subtype scores must NOT warm-restore the cached hierarchy — its canon
// is different — yet still reuse, through the version-diff lane, every
// function bundle and every model.
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
	// the evidence-independent functions and models.
	modelsOnly := func(label string, res *Result) {
		t.Helper()
		st := res.Incremental
		if res.SnapshotReuse != snapshot.LevelNone || st == nil {
			t.Fatalf("%s: reuse level %d, lane %+v; want a cold level on the lane", label, res.SnapshotReuse, st)
		}
		if st.FnMisses != 0 || st.TypesRetrained != 0 || st.FamiliesResolved != len(res.Families) {
			t.Errorf("%s: %+v, want every function and model reused and every family re-solved", label, *st)
		}
	}
	fusedCfg := cfg
	fusedCfg.Subtype = true
	modelsOnly("fused config", analyzeCached(t, img, fusedCfg))
	// The fused run overwrote the per-image slot under its own key; it
	// must warm-restore fully on the next fused run, while the default
	// configuration now sees a foreign hierarchy section and reuses only
	// the shared functions and models — the two canons never
	// cross-restore.
	if rewarm := analyzeCached(t, img, fusedCfg); rewarm.SnapshotReuse != snapshot.LevelHierarchy {
		t.Errorf("fused config did not warm-restore from its own snapshot: level %d", rewarm.SnapshotReuse)
	}
	back := analyzeCached(t, img, cfg)
	modelsOnly("default config after a fused snapshot", back)
	assertResultsEqual(t, "default after fused vs cold", cold, back)
}
