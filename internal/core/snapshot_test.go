package core

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
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

// TestSnapshotPartialReuseOnConfigChange checks the staged-validity chain
// end to end: changing only the distance metric salvages the extraction
// and model sections (LevelModels), changing the SLM depth salvages only
// the extraction (LevelExtraction), and each still reproduces a
// from-scratch run under the new configuration; changing the tracelet
// window invalidates everything.
func TestSnapshotPartialReuseOnConfigChange(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	analyzeCached(t, img, cfg) // populate the cache under MetricKL

	jsCfg := cfg
	jsCfg.Metric = slm.MetricJSDivergence
	partial := analyzeCached(t, img, jsCfg)
	if partial.SnapshotReuse != snapshot.LevelModels {
		t.Fatalf("metric change reused level %d, want %d", partial.SnapshotReuse, snapshot.LevelModels)
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
	if retrained.SnapshotReuse != snapshot.LevelExtraction {
		t.Fatalf("depth change reused level %d, want %d", retrained.SnapshotReuse, snapshot.LevelExtraction)
	}
	depthCold := depthCfg
	depthCold.CacheDir = ""
	assertResultsEqual(t, "salvaged extraction vs fresh depth-3 run", analyzeCached(t, img, depthCold), retrained)

	winCfg := jsCfg
	winCfg.Trace.Window = 5
	if res := analyzeCached(t, img, winCfg); res.SnapshotReuse != snapshot.LevelNone {
		t.Errorf("window change reused level %d, want cold", res.SnapshotReuse)
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

// TestSnapshotVersionMiss: a cache file in another format version is a
// plain miss — the run is cold, deep-equal to a cacheless run, and
// rewrites the slot in the current version.
func TestSnapshotVersionMiss(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	analyzeCached(t, img, cfg)
	path := cacheFile(t, cfg.CacheDir)
	rewriteVersion(t, path, 2)

	want := analyzeCached(t, img, DefaultConfig())
	got := analyzeCached(t, img, cfg)
	// Every exported field matches; the unexported memos legitimately
	// differ (the cached run digested the image to write its snapshot).
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		if f := gv.Type().Field(i); f.IsExported() && !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("version-miss run: %s diverged from a cacheless run", f.Name)
		}
	}
	if h, err := snapshot.ReadHeader(path); err != nil || h.Version != snapshot.Version {
		t.Errorf("slot not rewritten in version %d: %+v, %v", snapshot.Version, h, err)
	}
	if warm := analyzeCached(t, img, cfg); warm.SnapshotReuse != snapshot.LevelHierarchy {
		t.Errorf("rewritten slot reused level %d", warm.SnapshotReuse)
	}
}
