package snapshot_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/snapshot"
	"repro/internal/synth"
)

// writtenSnapshots analyzes imgs into an empty cache directory with the
// default configuration and returns the .rsnap files core wrote, one per
// image, in image order.
func writtenSnapshots(tb testing.TB, imgs []*image.Image) [][]byte {
	tb.Helper()
	cfg := core.DefaultConfig()
	cfg.CacheDir = tb.TempDir()
	out := make([][]byte, len(imgs))
	for i, img := range imgs {
		res, err := core.Analyze(img, cfg)
		if err != nil {
			tb.Fatalf("%s: %v", img.Name, err)
		}
		if res.SnapshotReuse != snapshot.LevelNone {
			tb.Fatalf("%s: analysis into an empty cache reused level %d", img.Name, res.SnapshotReuse)
		}
		entries, err := os.ReadDir(cfg.CacheDir)
		if err != nil {
			tb.Fatal(err)
		}
		for _, e := range entries {
			path := filepath.Join(cfg.CacheDir, e.Name())
			if out[i], err = os.ReadFile(path); err != nil {
				tb.Fatal(err)
			}
			os.Remove(path)
		}
		if out[i] == nil {
			tb.Fatalf("%s: no snapshot written", img.Name)
		}
	}
	return out
}

// table2Images builds the 19 Table 2 benchmark images.
func table2Images(tb testing.TB) []*image.Image {
	tb.Helper()
	var imgs []*image.Image
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			tb.Fatalf("build %s: %v", b.Name, err)
		}
		imgs = append(imgs, img)
	}
	return imgs
}

// deepImages builds the benchmark harness's deep programs: the first four
// generator seeds whose three-family, depth-5, branch-4 random program
// has 100 to 120 classes (about 110 types and 600 functions each).
func deepImages(tb testing.TB) []*image.Image {
	tb.Helper()
	var imgs []*image.Image
	for gen := int64(1); len(imgs) < 4; gen++ {
		p := synth.DefaultParams(gen)
		p.Families, p.MaxDepth, p.MaxBranch, p.UseReps = 3, 5, 4, 4
		prog, _ := synth.Generate(p)
		if k := len(prog.Classes); k < 100 || k > 120 {
			continue
		}
		img, err := compiler.Compile(prog, compiler.DefaultOptions())
		if err != nil {
			tb.Fatalf("compile %s: %v", prog.Name, err)
		}
		imgs = append(imgs, img.Strip())
	}
	return imgs
}

// TestDecodeMatchesReferenceOnCorpus checks the arena decoder against the
// reference decoder (MatchReference) on the snapshots core writes for the
// 19 Table 2 images and the 4 deep programs.
func TestDecodeMatchesReferenceOnCorpus(t *testing.T) {
	imgs := append(table2Images(t), deepImages(t)...)
	for i, data := range writtenSnapshots(t, imgs) {
		snapshot.MatchReference(t, imgs[i].Name, data)
	}
}

// BenchmarkSnapshotDecode decodes the 19 Table 2 snapshots once per op.
func BenchmarkSnapshotDecode(b *testing.B) {
	files := writtenSnapshots(b, table2Images(b))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, data := range files {
			if _, err := snapshot.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSnapshotEncode encodes the 19 Table 2 snapshots once per op.
func BenchmarkSnapshotEncode(b *testing.B) {
	var snaps []*snapshot.Snapshot
	for _, data := range writtenSnapshots(b, table2Images(b)) {
		s, err := snapshot.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, s := range snaps {
			if _, err := s.Encode(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
