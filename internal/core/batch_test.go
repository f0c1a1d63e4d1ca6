package core_test

// The batch-scheduling contract tests. The batch scheduler is
// core.Shared.AnalyzeBatch — one goroutine per image under the admission
// rule of core.Shared.Analyze — and these tests drive it with the Table 2
// images: index-owned results, the cold-concurrency bound, warm bypass,
// per-image errors, cancellation, one outcome per image, and nested
// fan-out on one pool.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/obs"
)

// suite builds the stripped Table 2 images.
func suite(t *testing.T) []*image.Image {
	t.Helper()
	var imgs []*image.Image
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatalf("build %s: %v", b.Name, err)
		}
		imgs = append(imgs, img)
	}
	return imgs
}

// sequential analyzes each image alone on a private serial pool — the
// reference every batch must reproduce.
func sequential(t *testing.T, imgs []*image.Image) []*core.Result {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	out := make([]*core.Result, len(imgs))
	for i, img := range imgs {
		res, err := core.AnalyzeContext(context.Background(), img, cfg)
		if err != nil {
			t.Fatalf("%s: %v", img.Name, err)
		}
		out[i] = res
	}
	return out
}

// sameAnalysis compares everything an analysis computes; provenance
// (snapshot reuse, the warm run's nil Funcs) may differ.
func sameAnalysis(got, want *core.Result) bool {
	return reflect.DeepEqual(got.Dist, want.Dist) &&
		reflect.DeepEqual(got.Families, want.Families) &&
		reflect.DeepEqual(got.Hierarchy, want.Hierarchy) &&
		reflect.DeepEqual(got.MultiParents, want.MultiParents) &&
		reflect.DeepEqual(got.Structural, want.Structural)
}

// outcome is one image's slot in a batch.
type outcome struct {
	res   *core.Result
	ad    core.Admission
	err   error
	calls int
}

// runBatch runs imgs as one batch on s with cfg for every image, and
// returns the index-owned outcomes and the batch error.
func runBatch(ctx context.Context, s *core.Shared, imgs []*image.Image, cfg core.Config) ([]outcome, error) {
	outs := make([]outcome, len(imgs))
	err := s.AnalyzeBatch(ctx, imgs,
		func(int) core.Config { return cfg },
		func(i int, res *core.Result, ad core.Admission, err error) {
			o := &outs[i]
			o.res, o.ad, o.err = res, ad, err
			o.calls++
		})
	return outs, err
}

// peakOpen reads a chrome trace and returns the most spans open at once
// among the images' analysis spans and, with helpers, the fan-out helper
// spans — each of which holds one pool token while it is open — and the
// number of helper spans seen.
func peakOpen(t *testing.T, tr *obs.Trace, withHelpers bool) (peak, helpers int) {
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
		image := e.Cat == "stage" && strings.HasPrefix(e.Name, "image ")
		if e.Cat == "fanout" {
			helpers++
		}
		if image || (withHelpers && e.Cat == "fanout") {
			edges = append(edges, edge{e.Ts, 1}, edge{e.Ts + e.Dur, -1})
		}
		if image {
			images++
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
	cur := 0
	for _, e := range edges {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak, helpers
}

// tracedConfig returns the default configuration with a fresh bus on the
// shared trace. Buses are per analysis, so cfgFor must call it per image.
func tracedConfig(tr *obs.Trace) core.Config {
	cfg := core.DefaultConfig()
	cfg.Obs = obs.NewBus()
	cfg.Obs.Trace = tr
	return cfg
}

// TestRunIndexOrdered: the outcomes are index-owned regardless of
// completion order or pool capacity, and deep-equal to analyzing each
// image alone.
func TestRunIndexOrdered(t *testing.T) {
	imgs := suite(t)
	want := sequential(t, imgs)
	for _, workers := range []int{1, 2, 8} {
		outs, err := runBatch(context.Background(), core.NewShared(workers), imgs, core.DefaultConfig())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, o := range outs {
			if o.err != nil || o.ad.Warm {
				t.Fatalf("workers=%d: %s: warm=%v err=%v", workers, imgs[i].Name, o.ad.Warm, o.err)
			}
			if o.res.Image != imgs[i] || !sameAnalysis(o.res, want[i]) {
				t.Errorf("workers=%d: slot %d does not hold %s's sequential result", workers, i, imgs[i].Name)
			}
		}
	}
}

// TestRunBoundsConcurrency: at most Workers cold analyses run at once —
// each holds one pool token from admission to its end.
func TestRunBoundsConcurrency(t *testing.T) {
	imgs := suite(t)
	for _, workers := range []int{1, 3} {
		tr := obs.NewTrace()
		s := core.NewShared(workers)
		err := s.AnalyzeBatch(context.Background(), imgs,
			func(int) core.Config { return tracedConfig(tr) },
			func(i int, _ *core.Result, _ core.Admission, err error) {
				if err != nil {
					t.Errorf("workers=%d: %s: %v", workers, imgs[i].Name, err)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := peakOpen(t, tr, false); p > workers {
			t.Fatalf("%d concurrent analyses, pool capacity %d", p, workers)
		}
	}
}

// wedgeCtx stalls the analysis it is handed on that analysis's first
// cancellation or observer check — which comes after admission, while the
// analysis holds its pool token — until release is closed.
type wedgeCtx struct {
	context.Context
	once             sync.Once
	entered, release chan struct{}
}

func (c *wedgeCtx) hold() { c.once.Do(func() { close(c.entered); <-c.release }) }

func (c *wedgeCtx) Err() error { c.hold(); return c.Context.Err() }

func (c *wedgeCtx) Value(key any) any { c.hold(); return c.Context.Value(key) }

// TestWarmBypass: warm images skip the analysis pool entirely — with a
// capacity-1 pool whose one token is held by a stalled cold analysis, a
// mixed batch's warm images all complete (and only then is the stall
// released), while its cold image waits for the token; every outcome
// matches the cold reference.
func TestWarmBypass(t *testing.T) {
	imgs := suite(t)[:7] // 0: the stalled analysis, 1..5 warm, 6 cold
	want := sequential(t, imgs)
	cfg := core.DefaultConfig()
	cfg.CacheDir = t.TempDir()
	for _, img := range imgs[1:6] {
		if _, err := core.AnalyzeContext(context.Background(), img, cfg); err != nil {
			t.Fatal(err)
		}
	}

	s := core.NewShared(1)
	wedge := &wedgeCtx{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{})}
	stalled := make(chan error, 1)
	go func() {
		_, _, err := s.Analyze(wedge, imgs[0], cfg)
		stalled <- err
	}()
	select {
	case <-wedge.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the cold analysis never reached its first context check")
	}

	batch := append([]*image.Image{imgs[6]}, imgs[1:6]...)
	outs := make([]outcome, len(batch))
	var warmDone atomic.Int64
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(wedge.release) }) }
	finished := make(chan error, 1)
	go func() {
		finished <- s.AnalyzeBatch(context.Background(), batch,
			func(int) core.Config { return cfg },
			func(i int, res *core.Result, ad core.Admission, err error) {
				outs[i] = outcome{res: res, ad: ad, err: err, calls: 1}
				if ad.Warm && warmDone.Add(1) == int64(len(batch)-1) {
					release()
				}
			})
	}()
	select {
	case <-wedge.release:
	case <-time.After(30 * time.Second):
		release()
		t.Fatalf("only %d of %d warm images completed behind the held token", warmDone.Load(), len(batch)-1)
	}
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	if err := <-stalled; err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		ref := want[6]
		if i > 0 {
			ref = want[i]
		}
		if o.err != nil || o.ad.Warm != (i > 0) || !sameAnalysis(o.res, ref) {
			t.Errorf("%s: warm=%v err=%v, or diverged from the cold reference", batch[i].Name, o.ad.Warm, o.err)
		}
	}
}

// raggedCopy returns a copy of img whose last function is one byte long,
// which disassembly rejects.
func raggedCopy(img *image.Image) *image.Image {
	bad := *img
	last := bad.Entries[len(bad.Entries)-1]
	bad.Entries = append(append([]uint64(nil), bad.Entries...), last+1)
	return &bad
}

// TestPerItemErrorsDoNotAbort: one failing image is recorded in its slot;
// the others complete with their sequential results.
func TestPerItemErrorsDoNotAbort(t *testing.T) {
	imgs := suite(t)[:9]
	want := sequential(t, imgs)
	const bad = 4
	batch := append([]*image.Image(nil), imgs...)
	batch[bad] = raggedCopy(imgs[bad])
	outs, err := runBatch(context.Background(), core.NewShared(2), batch, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if i == bad {
			if o.err == nil || o.res != nil {
				t.Fatalf("ragged image: res=%v err=%v", o.res != nil, o.err)
			}
		} else if o.err != nil || !sameAnalysis(o.res, want[i]) {
			t.Fatalf("%s: err=%v, or diverged from the sequential result", imgs[i].Name, o.err)
		}
	}
}

// TestCancellation: canceling mid-batch returns ctx.Err(), every image
// either completed or reports the cancellation, the images admitted after
// the cancel never complete, and no goroutine is left behind.
func TestCancellation(t *testing.T) {
	imgs := suite(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	outs := make([]outcome, len(imgs))
	var completed atomic.Int64
	err := core.NewShared(2).AnalyzeBatch(ctx, imgs,
		func(int) core.Config { return core.DefaultConfig() },
		func(i int, res *core.Result, ad core.Admission, err error) {
			outs[i] = outcome{res: res, ad: ad, err: err, calls: 1}
			if err == nil && completed.Add(1) == 1 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	var canceled int
	for i, o := range outs {
		switch {
		case o.err == nil && o.res != nil:
		case errors.Is(o.err, context.Canceled) && o.res == nil:
			canceled++
		default:
			t.Fatalf("%s: res=%v err=%v", imgs[i].Name, o.res != nil, o.err)
		}
	}
	if canceled == 0 {
		t.Fatalf("cancellation stopped no image (%d completed)", completed.Load())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("goroutines leaked: %d > baseline %d", g, base)
	}
}

// TestStreamDelivery: done delivers exactly one outcome per image, on the
// image's own goroutine as soon as it is known, before the batch returns.
func TestStreamDelivery(t *testing.T) {
	imgs := suite(t)
	var mu sync.Mutex
	var order []int
	outs := make([]outcome, len(imgs))
	err := core.NewShared(4).AnalyzeBatch(context.Background(), imgs,
		func(int) core.Config { return core.DefaultConfig() },
		func(i int, res *core.Result, ad core.Admission, err error) {
			outs[i].calls++
			outs[i].res, outs[i].err = res, err
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(imgs) {
		t.Fatalf("%d deliveries for %d images", len(order), len(imgs))
	}
	for i, o := range outs {
		if o.calls != 1 || o.err != nil || o.res == nil || o.res.Image != imgs[i] {
			t.Fatalf("%s: %d deliveries, err=%v", imgs[i].Name, o.calls, o.err)
		}
	}
}

// TestNestedFanOutSharesPool: analyses whose stages fan out over the same
// shared pool stay within the batch-wide bound — admitted images plus
// their helpers never exceed the capacity — and complete (no token
// deadlock between admission and helpers). The full suite contends for
// admission; a batch smaller than the pool always leaves a token free, so
// its fan-outs must win helpers.
func TestNestedFanOutSharesPool(t *testing.T) {
	imgs := suite(t)
	want := sequential(t, imgs)
	const workers = 4
	for _, n := range []int{len(imgs), workers - 1} {
		tr := obs.NewTrace()
		outs := make([]outcome, n)
		err := core.NewShared(workers).AnalyzeBatch(context.Background(), imgs[:n],
			func(int) core.Config { return tracedConfig(tr) },
			func(i int, res *core.Result, ad core.Admission, err error) {
				outs[i] = outcome{res: res, ad: ad, err: err, calls: 1}
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			if o.err != nil || !sameAnalysis(o.res, want[i]) {
				t.Fatalf("%d images: %s: err=%v, or diverged from the sequential result", n, imgs[i].Name, o.err)
			}
		}
		p, helpers := peakOpen(t, tr, true)
		if n < workers && helpers == 0 {
			t.Fatalf("%d images: no analysis fanned out onto the free pool tokens", n)
		}
		if p > workers {
			t.Fatalf("%d images: %d concurrent units, pool capacity %d", n, p, workers)
		}
	}
}
