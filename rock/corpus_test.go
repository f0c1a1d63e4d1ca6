package rock

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/image"
)

func buildSuite(t *testing.T) []*image.Image {
	t.Helper()
	var imgs []*image.Image
	for _, b := range bench.All() {
		img, meta, err := b.Build()
		if err != nil {
			t.Fatalf("build %s: %v", b.Name, err)
		}
		img.Meta = meta // AnalyzeCorpus strips; names decorate the reports
		imgs = append(imgs, img)
	}
	return imgs
}

// raggedCopy returns a stripped copy of img whose last function is one
// byte long, which disassembly rejects.
func raggedCopy(img *image.Image) *image.Image {
	bad := *img.Strip()
	last := bad.Entries[len(bad.Entries)-1]
	bad.Entries = append(append([]uint64(nil), bad.Entries...), last+1)
	return &bad
}

// peakRunning reads a chrome trace and returns the most spans that were
// open at once among the images' analysis spans and the fan-out helper
// spans — each of which holds one pool token while it is open.
func peakRunning(t *testing.T, tr *Trace) int {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name, Cat string
		Ts, Dur   float64
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	type edge struct {
		at    float64
		delta int
	}
	var edges []edge
	images := 0
	for _, e := range events {
		if e.Cat == "fanout" || (e.Cat == "stage" && strings.HasPrefix(e.Name, "image ")) {
			edges = append(edges, edge{e.Ts, 1}, edge{e.Ts + e.Dur, -1})
			if e.Cat == "stage" {
				images++
			}
		}
	}
	if images == 0 {
		t.Fatal("trace holds no image spans")
	}
	// Ends sort before starts at equal times: a token released and taken
	// again at the same instant is not an overlap.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak
}

// TestAnalyzeCorpusMatchesSequential: the batch engine's Reports come
// back index-ordered and deep-equal to AnalyzeImage run one image at a
// time, for a serial pool and contended ones; one failing image is
// recorded in its own slot without aborting the others; and the analyses
// running at once, counting their nested fan-out helpers on the same
// pool, never exceed the pool capacity.
func TestAnalyzeCorpusMatchesSequential(t *testing.T) {
	imgs := buildSuite(t)
	want := make([]*Report, len(imgs))
	for i, img := range imgs {
		rep, err := AnalyzeImage(img, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}
	const bad = 7
	batch := append(append(append([]*image.Image(nil), imgs[:bad]...), raggedCopy(imgs[bad])), imgs[bad:]...)
	want = append(append(append([]*Report(nil), want[:bad]...), nil), want[bad:]...)
	for _, workers := range []int{1, 2, 8} {
		var streamed int
		var mu sync.Mutex
		trace := NewTrace()
		got, err := AnalyzeCorpus(context.Background(), batch, CorpusOptions{
			Options: Options{Workers: workers},
			Trace:   trace,
			OnResult: func(CorpusItem) {
				mu.Lock()
				streamed++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if streamed != len(batch) {
			t.Fatalf("workers=%d: streamed %d of %d results", workers, streamed, len(batch))
		}
		if got.Warm != 0 {
			t.Fatalf("workers=%d: cacheless corpus classified %d warm", workers, got.Warm)
		}
		for i, it := range got.Items {
			if it.Index != i {
				t.Fatalf("workers=%d: items[%d] carries index %d", workers, i, it.Index)
			}
			if i == bad {
				if it.Err == nil || it.Report != nil {
					t.Errorf("workers=%d: ragged image analyzed without error", workers)
				}
				continue
			}
			if it.Err != nil {
				t.Fatalf("workers=%d: image %d: %v", workers, i, it.Err)
			}
			rep := *it.Report
			rep.Stats = nil // observed only for the trace
			if !reflect.DeepEqual(&rep, want[i]) {
				t.Errorf("workers=%d: image %d report diverged from sequential AnalyzeImage", workers, i)
			}
		}
		if p := peakRunning(t, trace); p > workers {
			t.Errorf("workers=%d: %d analyses and helpers ran at once", workers, p)
		}
	}
}

// TestAnalyzeCorpusWarmBypass: with a snapshot cache populated for half
// the suite, a mixed pass classifies exactly those images warm and the
// rest cold, and a second full pass classifies every image warm; every
// report stays deep-equal to the cold pass.
func TestAnalyzeCorpusWarmBypass(t *testing.T) {
	imgs := buildSuite(t)
	cacheDir, err := os.MkdirTemp(t.TempDir(), "corpus-cache-")
	if err != nil {
		t.Fatal(err)
	}
	opts := CorpusOptions{Options: Options{Workers: 4, CacheDir: cacheDir}}
	half := len(imgs) / 2
	if _, err := AnalyzeCorpus(context.Background(), imgs[:half], opts); err != nil {
		t.Fatal(err)
	}
	mixed, err := AnalyzeCorpus(context.Background(), imgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Warm != half {
		t.Fatalf("mixed pass classified %d images warm, want %d", mixed.Warm, half)
	}
	warm, err := AnalyzeCorpus(context.Background(), imgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Warm != len(imgs) {
		t.Fatalf("warm pass classified only %d of %d images warm", warm.Warm, len(imgs))
	}
	for i := range imgs {
		if mixed.Items[i].Warm != (i < half) {
			t.Errorf("mixed pass: image %d warm=%v", i, mixed.Items[i].Warm)
		}
		if !warm.Items[i].Warm {
			t.Errorf("image %d not flagged warm", i)
		}
		// The provenance fields record HOW each run executed (warm runs
		// report their snapshot reuse level); everything the analysis
		// computed must be identical.
		w, m := *warm.Items[i].Report, *mixed.Items[i].Report
		w.SnapshotReuse, m.SnapshotReuse = 0, 0
		if !reflect.DeepEqual(w, m) {
			t.Errorf("image %d warm report diverged from cold", i)
		}
	}
}

// TestAnalyzeCorpusCancellation: a batch canceled before it starts, or
// midway through, returns the context error rather than partial results,
// and leaves no goroutine behind.
func TestAnalyzeCorpusCancellation(t *testing.T) {
	imgs := buildSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeCorpus(ctx, imgs, CorpusOptions{}); err == nil {
		t.Fatal("canceled corpus returned nil error")
	}

	base := runtime.NumGoroutine()
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	_, err := AnalyzeCorpus(ctx, imgs, CorpusOptions{
		Options:  Options{Workers: 2},
		OnResult: func(CorpusItem) { cancel() },
	})
	if err == nil {
		t.Fatal("corpus canceled midway returned nil error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("goroutines leaked: %d > baseline %d", g, base)
	}
}
