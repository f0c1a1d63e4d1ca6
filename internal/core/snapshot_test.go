package core

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/image"
	"repro/internal/slm"
	"repro/internal/snapshot"
)

// assertResultsEqual compares two analysis results field by field,
// excluding Funcs (documented nil on warm runs) and the reuse level
// itself.
func assertResultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	check := func(name string, x, y any) {
		if !reflect.DeepEqual(x, y) {
			t.Errorf("%s: %s diverged", label, name)
		}
	}
	check("VTables", a.VTables, b.VTables)
	check("Structural", a.Structural, b.Structural)
	check("Tracelets", a.Tracelets, b.Tracelets)
	check("Alphabet", a.Alphabet, b.Alphabet)
	check("Frozen", a.Frozen, b.Frozen)
	check("Dist", a.Dist, b.Dist)
	check("Families", a.Families, b.Families)
	check("Hierarchy", a.Hierarchy, b.Hierarchy)
	check("MultiParents", a.MultiParents, b.MultiParents)
}

func analyzeCached(t *testing.T, img *image.Image, cfg Config) *Result {
	t.Helper()
	res, err := Analyze(img, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

// TestSnapshotWarmRunMatchesCold is the snapshot cache's acceptance on
// the motivating example and all 19 Table 2 images: a warm run restores
// the whole pipeline from the snapshot (SnapshotReuse == LevelHierarchy)
// and every derived artifact is deep-equal to the cold run that wrote it.
func TestSnapshotWarmRunMatchesCold(t *testing.T) {
	motImg, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	imgs := map[string]*image.Image{"motivating": motImg}
	names := []string{"motivating"}
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		imgs[b.Name] = img
		names = append(names, b.Name)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			img := imgs[name]
			cfg := DefaultConfig()
			cfg.CacheDir = t.TempDir()

			cold := analyzeCached(t, img, cfg)
			if cold.SnapshotReuse != snapshot.LevelNone {
				t.Fatalf("cold run reused level %d", cold.SnapshotReuse)
			}
			if cold.Funcs == nil {
				t.Fatal("cold run must lift functions")
			}
			warm := analyzeCached(t, img, cfg)
			if warm.SnapshotReuse != snapshot.LevelHierarchy {
				t.Fatalf("warm run reused level %d, want %d", warm.SnapshotReuse, snapshot.LevelHierarchy)
			}
			if warm.Funcs != nil {
				t.Error("warm run must not lift functions")
			}
			assertResultsEqual(t, "warm vs cold", cold, warm)
		})
	}
}

// TestSnapshotPartialReuseOnConfigChange checks the reuse rule end to
// end on the image's own slot: a configuration change is never a warm
// restore (SnapshotReuse stays LevelNone), but while the extraction
// fingerprint matches the slot becomes the version-diff lane's prior.
// Changing only the distance metric re-extracts no function and retrains
// no type, changing the SLM depth retrains every type, and each still
// reproduces a from-scratch run under the new configuration; changing
// the tracelet window runs cold.
func TestSnapshotPartialReuseOnConfigChange(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	analyzeCached(t, img, cfg) // populate the cache under MetricKL

	jsCfg := cfg
	jsCfg.Metric = slm.MetricJSDivergence
	partial := analyzeCached(t, img, jsCfg)
	st := partial.Incremental
	if partial.SnapshotReuse != snapshot.LevelNone || st == nil {
		t.Fatalf("metric change: reuse level %d, lane %+v; want a cold level on the lane", partial.SnapshotReuse, st)
	}
	if st.FnMisses != 0 || st.TypesRetrained != 0 || st.FamiliesResolved != len(partial.Families) {
		t.Errorf("metric change: %+v, want every function and model reused and every family re-solved", *st)
	}
	jsCold := jsCfg
	jsCold.CacheDir = ""
	fresh := analyzeCached(t, img, jsCold)
	assertResultsEqual(t, "salvaged models vs fresh js run", fresh, partial)

	// The metric-change run overwrote the slot; warm again under JS.
	if again := analyzeCached(t, img, jsCfg); again.SnapshotReuse != snapshot.LevelHierarchy {
		t.Errorf("rewarm after metric change reused level %d", again.SnapshotReuse)
	}

	depthCfg := jsCfg
	depthCfg.SLMDepth = 3
	retrained := analyzeCached(t, img, depthCfg)
	st = retrained.Incremental
	if retrained.SnapshotReuse != snapshot.LevelNone || st == nil {
		t.Fatalf("depth change: reuse level %d, lane %+v; want a cold level on the lane", retrained.SnapshotReuse, st)
	}
	if st.FnMisses != 0 || st.TypesRetrained != len(retrained.VTables) {
		t.Errorf("depth change: %+v, want every function reused and all %d types retrained", *st, len(retrained.VTables))
	}
	depthCold := depthCfg
	depthCold.CacheDir = ""
	assertResultsEqual(t, "salvaged extraction vs fresh depth-3 run", analyzeCached(t, img, depthCold), retrained)

	winCfg := jsCfg
	winCfg.Window = 5
	if res := analyzeCached(t, img, winCfg); res.SnapshotReuse != snapshot.LevelNone || res.Incremental != nil {
		t.Errorf("window change reused level %d on lane %+v, want cold", res.SnapshotReuse, res.Incremental)
	}
}

// TestReuseRuleOwnSlotFirst puts a patched sibling's snapshot, also
// named as an explicit IncrementalFrom, beside the image's own slot and
// changes one setting at a time. The own slot is the prior whenever its
// extraction fingerprint matches: a metric or Subtype change re-extracts
// no function and retrains no type (the sibling would cost both), a
// depth change retrains every type, and a window change, which no cached
// snapshot survives, runs cold. Every result is deep-equal to a cold run.
func TestReuseRuleOwnSlotFirst(t *testing.T) {
	img, cands := synthPatchable(t)
	patched := patchedCopy(t, img, cands, 1)
	base := DefaultConfig()
	base.CacheDir = t.TempDir()
	analyzeCached(t, img, base)
	analyzeCached(t, patched, base)
	ownName := base.withDefaults().snapshotKey(img).FileName()
	siblingName := base.withDefaults().snapshotKey(patched).FileName()

	for _, c := range []struct {
		name   string
		change func(*Config)
		lane   bool
	}{
		{"metric", func(c *Config) { c.Metric = slm.MetricJSDistance }, true},
		{"subtype", func(c *Config) { c.Subtype = true }, true},
		{"depth", func(c *Config) { c.SLMDepth = 3 }, true},
		{"window", func(c *Config) { c.Window = 5 }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.change(&cfg)
			cold := analyzeCached(t, img, cfg)

			cfg.CacheDir = t.TempDir()
			for _, name := range []string{ownName, siblingName} {
				data, err := os.ReadFile(filepath.Join(base.CacheDir, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(cfg.CacheDir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cfg.IncrementalFrom = filepath.Join(cfg.CacheDir, siblingName)
			res := analyzeCached(t, img, cfg)
			if res.SnapshotReuse != snapshot.LevelNone {
				t.Errorf("reuse level %d, want cold", res.SnapshotReuse)
			}
			st := res.Incremental
			switch {
			case !c.lane:
				if st != nil {
					t.Errorf("lane engaged (%+v), want a cold run", *st)
				}
			case st == nil:
				t.Fatal("lane did not engage on the own slot")
			case st.FnMisses != 0:
				t.Errorf("%d functions re-extracted, want 0: the prior is not the own slot", st.FnMisses)
			case c.name == "depth" && st.TypesRetrained != len(res.VTables):
				t.Errorf("%d types retrained, want all %d", st.TypesRetrained, len(res.VTables))
			case c.name != "depth" && st.TypesRetrained != 0:
				t.Errorf("%d types retrained, want 0", st.TypesRetrained)
			}
			if !reflect.DeepEqual(res.Funcs, cold.Funcs) {
				t.Error("Funcs diverged from a cold run")
			}
			assertResultsEqual(t, c.name+" reuse vs cold", cold, res)
		})
	}
}

// TestSnapshotCorruptCacheIsMiss corrupts the cached file in place: the
// next run must silently fall back to a cold analysis and repair the slot.
func TestSnapshotCorruptCacheIsMiss(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	cold := analyzeCached(t, img, cfg)

	entries, err := os.ReadDir(cfg.CacheDir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir: %v entries, err %v", len(entries), err)
	}
	path := cfg.CacheDir + "/" + entries[0].Name()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res := analyzeCached(t, img, cfg)
	if res.SnapshotReuse != snapshot.LevelNone {
		t.Fatalf("corrupted snapshot reused level %d", res.SnapshotReuse)
	}
	assertResultsEqual(t, "post-corruption cold vs original", cold, res)
	if warm := analyzeCached(t, img, cfg); warm.SnapshotReuse != snapshot.LevelHierarchy {
		t.Errorf("slot not repaired: level %d", warm.SnapshotReuse)
	}
}

// rewriteVersion sets the version field of the snapshot file at path to v
// and reseals its checksum, so the version is the file's only defect.
func rewriteVersion(t *testing.T, path string, v uint32) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[4:8], v)
	payload := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(payload)
	copy(data[len(payload):], sum[:])
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotVersionMiss: a cache file in another format version — a
// v3 file from before the co-optimal structure, or an older v2 — is a
// plain miss: the run is cold, deep-equal to a cacheless run, and
// rewrites the slot in the current version.
func TestSnapshotVersionMiss(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	want := analyzeCached(t, img, DefaultConfig())
	for _, v := range []uint32{2, 3} {
		cfg := DefaultConfig()
		cfg.CacheDir = t.TempDir()
		analyzeCached(t, img, cfg)
		path := cacheFile(t, cfg.CacheDir)
		rewriteVersion(t, path, v)

		got := analyzeCached(t, img, cfg)
		if got.SnapshotReuse != snapshot.LevelNone {
			t.Errorf("v%d slot reused level %d", v, got.SnapshotReuse)
		}
		// Every exported field matches; the unexported memos legitimately
		// differ (the cached run digested the image to write its snapshot).
		gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
		for i := 0; i < gv.NumField(); i++ {
			if f := gv.Type().Field(i); f.IsExported() && !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
				t.Errorf("v%d version-miss run: %s diverged from a cacheless run", v, f.Name)
			}
		}
		if h, err := snapshot.ReadHeader(path); err != nil || h.Version != snapshot.Version {
			t.Errorf("v%d slot not rewritten in version %d: %+v, %v", v, snapshot.Version, h, err)
		}
		if warm := analyzeCached(t, img, cfg); warm.SnapshotReuse != snapshot.LevelHierarchy {
			t.Errorf("v%d rewritten slot reused level %d", v, warm.SnapshotReuse)
		}
	}
}
