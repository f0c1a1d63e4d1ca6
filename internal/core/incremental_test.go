package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/image"
)

// synthPatchable builds a synth-grid image with plenty of safely
// patchable functions. The hand-written motivating program is useless
// here — its field-write idioms sit in ctor bodies whose traces the
// patch cannot reach cleanly — while the generated use_* driver
// functions have exactly the movi+store shape the patch needs. The
// deep/opt cell is picked because a mid-table patch there provably
// forces both lanes of the diff: some types retrain and some families
// re-solve, while most of both are reused.
func synthPatchable(t *testing.T) (*image.Image, []uint64) {
	t.Helper()
	c := bench.SynthByName("deep/opt")
	if c == nil {
		t.Fatal("synth grid lost the deep/opt cell")
	}
	img, _, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	cands := bench.PatchableFunctions(img)
	if len(cands) < 5 {
		t.Fatalf("deep/opt has only %d patchable functions", len(cands))
	}
	return img, cands
}

// patchedCopy clones img and patches k patchable functions starting
// from the middle of the candidate table (mid-table use functions trace
// into typed objects, so the patch perturbs the analysis rather than
// deleting an unattributed event).
func patchedCopy(t *testing.T, img *image.Image, cands []uint64, k int) *image.Image {
	t.Helper()
	out := img.Strip()
	for _, e := range cands[len(cands)/2 : len(cands)/2+k] {
		if err := bench.PatchFunction(out, e); err != nil {
			t.Fatalf("PatchFunction(%#x): %v", e, err)
		}
	}
	return out
}

// TestIncrementalMatchesCold is the tentpole acceptance at the core
// level: after a 1-function patch, the warm lane — via cache-dir
// auto-discovery and via an explicit prior path — re-extracts exactly
// the patched function, reuses unchanged models and families, and
// produces a Result deep-equal to a cold analysis of the patched image.
func TestIncrementalMatchesCold(t *testing.T) {
	img, cands := synthPatchable(t)

	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	analyzeCached(t, img, cfg) // cold base run writes the prior snapshot

	patched := patchedCopy(t, img, cands, 1)
	cold := analyzeCached(t, patched, DefaultConfig())
	if cold.Incremental != nil {
		t.Fatal("cold run must not engage the incremental lane")
	}

	// Auto-discovery: same cache dir, new content digest.
	incr := analyzeCached(t, patched, cfg)
	st := incr.Incremental
	if st == nil {
		t.Fatal("incremental lane did not engage via auto-discovery")
	}
	t.Logf("stats: %+v", *st)
	if st.FnMisses != 1 || st.FnHits != len(patched.Entries)-1 {
		t.Errorf("fn reuse = %d hits / %d misses, want %d / 1",
			st.FnHits, st.FnMisses, len(patched.Entries)-1)
	}
	if st.TypesReused == 0 || st.TypesRetrained == 0 {
		t.Errorf("a 1-function patch must split the types (%d reused, %d retrained)",
			st.TypesReused, st.TypesRetrained)
	}
	if st.TypesReused+st.TypesRetrained != len(incr.VTables) {
		t.Errorf("type accounting %d+%d != %d types",
			st.TypesReused, st.TypesRetrained, len(incr.VTables))
	}
	if st.FamiliesRestored == 0 || st.FamiliesResolved == 0 {
		t.Errorf("a 1-function patch must split the families (%d restored, %d re-solved)",
			st.FamiliesRestored, st.FamiliesResolved)
	}
	assertResultsEqual(t, "incr vs cold", cold, incr)

	// Explicit prior, no cache directory at all.
	fromCfg := DefaultConfig()
	fromCfg.IncrementalFrom = filepath.Join(cfg.CacheDir,
		cfg.withDefaults().snapshotKey(img).FileName())
	incr2 := analyzeCached(t, patched, fromCfg)
	if incr2.Incremental == nil || incr2.Incremental.FnMisses != 1 {
		t.Fatalf("explicit prior lane: %+v", incr2.Incremental)
	}
	assertResultsEqual(t, "incr-from vs cold", cold, incr2)
}

// TestIncrementalDeterminism checks the lane is schedule-independent:
// the same patched image analyzed incrementally under serial and highly
// parallel pipelines yields deep-equal results (satellite acceptance).
func TestIncrementalDeterminism(t *testing.T) {
	img, cands := synthPatchable(t)

	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	analyzeCached(t, img, cfg)
	prior := filepath.Join(cfg.CacheDir, cfg.withDefaults().snapshotKey(img).FileName())

	patched := patchedCopy(t, img, cands, 3)
	cold := analyzeCached(t, patched, DefaultConfig())

	for _, workers := range []int{1, 8} {
		wcfg := DefaultConfig()
		wcfg.Workers = workers
		wcfg.IncrementalFrom = prior
		res := analyzeCached(t, patched, wcfg)
		if res.Incremental == nil || res.Incremental.FnMisses != 3 {
			t.Fatalf("workers=%d: %+v", workers, res.Incremental)
		}
		assertResultsEqual(t, "incr vs cold", cold, res)
	}
}

// TestIncrementalV2PriorColdFallback: a prior snapshot in another format
// version (here a v2 version field) is a miss for the incremental lane,
// never an error — auto-discovery skips it and an explicit prior degrades
// to a cold run, both deep-equal to a from-scratch analysis.
func TestIncrementalV2PriorColdFallback(t *testing.T) {
	img, cands := synthPatchable(t)

	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	analyzeCached(t, img, cfg)
	path := filepath.Join(cfg.CacheDir, cfg.withDefaults().snapshotKey(img).FileName())
	rewriteVersion(t, path, 2)

	patched := patchedCopy(t, img, cands, 1)
	cold := analyzeCached(t, patched, DefaultConfig())

	auto := analyzeCached(t, patched, cfg)
	if auto.Incremental != nil {
		t.Fatalf("lane engaged on a v2 prior: %+v", auto.Incremental)
	}
	assertResultsEqual(t, "v2-auto vs cold", cold, auto)

	fromCfg := DefaultConfig()
	fromCfg.IncrementalFrom = path
	expl := analyzeCached(t, patched, fromCfg)
	if expl.Incremental != nil {
		t.Fatalf("lane engaged on an explicit v2 prior: %+v", expl.Incremental)
	}
	assertResultsEqual(t, "v2-explicit vs cold", cold, expl)
}

// TestIncrementalPriorErrors: an explicit prior that cannot be loaded is
// a hard error (the caller named a specific file); a corrupt snapshot
// sitting in the cache directory is silently ignored by auto-discovery.
func TestIncrementalPriorErrors(t *testing.T) {
	img, cands := synthPatchable(t)
	patched := patchedCopy(t, img, cands, 1)

	cfg := DefaultConfig()
	cfg.IncrementalFrom = filepath.Join(t.TempDir(), "missing.rsnap")
	if _, err := Analyze(patched, cfg); err == nil {
		t.Fatal("missing explicit prior must be an error")
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk.rsnap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	autoCfg := DefaultConfig()
	autoCfg.CacheDir = dir
	res := analyzeCached(t, patched, autoCfg)
	if res.Incremental != nil {
		t.Fatalf("lane engaged on a corrupt cache entry: %+v", res.Incremental)
	}
}
