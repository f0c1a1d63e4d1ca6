package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/image"
	"repro/internal/pool"
	"repro/internal/snapshot"
)

// Shared is the execution state analyses share: one bounded worker pool
// and a semaphore of the same size for warm snapshot decodes.
// Shared.Analyze is the one way to run an analysis — AnalyzeContext runs
// one image on a Shared of its own, rock.Engine serves a request stream
// through one, and AnalyzeBatch runs a fixed batch — so concurrent
// analyses compete for one global parallelism bound instead of each
// assuming it owns the machine. Safe for concurrent use; results are
// identical for every capacity and interleaving.
type Shared struct {
	pool *pool.Shared
	warm chan struct{}
}

// NewShared returns shared execution state of the given capacity; 0
// selects runtime.GOMAXPROCS(0).
func NewShared(workers int) *Shared {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Shared{
		pool: pool.NewShared(workers),
		warm: make(chan struct{}, workers),
	}
}

// Workers returns the capacity of the shared worker pool.
func (s *Shared) Workers() int { return s.pool.Cap() }

// Admission records how Shared.Analyze scheduled one analysis.
type Admission struct {
	// Warm reports that the image's snapshot probed fully warm, so it
	// decoded without taking a pool token.
	Warm bool
	// Wait is how long the image queued before its work started: for its
	// pool token when cold, for a warm-decode slot when warm.
	Wait time.Duration
}

// Analyze runs one analysis on the shared state under the admission
// rule: probe the snapshot (ProbeSnapshot); a cold image holds one pool
// token for its whole analysis — its fan-outs borrow further tokens for
// helpers — so the analyses actually running never exceed the pool
// capacity; a fully warm image decodes without a token, bounded only by
// the warm semaphore, so it never waits behind a cold one. When cfg.Obs
// carries a Trace, the admitted analysis draws on a trace lane of its own,
// held only while it runs. img must be stripped: an image carrying
// metadata is refused, because the analysis must never see ground truth.
func (s *Shared) Analyze(ctx context.Context, img *image.Image, cfg Config) (*Result, Admission, error) {
	if img.Meta != nil {
		return nil, Admission{}, fmt.Errorf("core: refusing to analyze a non-stripped image (call Strip first)")
	}
	cfg.pool = s.pool
	cfg = cfg.withDefaults()
	level, key := probe(img, cfg)
	ad := Admission{Warm: level == snapshot.LevelHierarchy}
	t0 := time.Now()
	if ad.Warm {
		select {
		case s.warm <- struct{}{}:
		case <-ctx.Done():
			return nil, ad, ctx.Err()
		}
		defer func() { <-s.warm }()
	} else {
		if err := s.pool.Acquire(ctx); err != nil {
			return nil, ad, err
		}
		defer s.pool.Release()
	}
	ad.Wait = time.Since(t0)
	if bus := cfg.Obs; bus != nil && bus.Trace != nil {
		bus.Lane = bus.Trace.AcquireLane()
		defer bus.Trace.ReleaseLane(bus.Lane)
		defer bus.Span("image " + img.Name).End()
	}
	res, err := analyze(ctx, img, cfg, key)
	return res, ad, err
}

// AnalyzeBatch analyzes imgs as one batch on s: one goroutine per image,
// each through Analyze, so cold work is bounded by the pool tokens and
// warm decodes by the warm semaphore. cfgFor returns image i's
// configuration, and done receives image i's outcome on image i's
// goroutine as soon as it is known (completion order, concurrently) — an
// error is this image's failure, or the context error when cancellation
// aborted it, and never stops the others. done must write only state
// owned by index i (or synchronize), which makes a batch deep-equal to
// analyzing each image alone, for every pool capacity; nothing retains a
// Result that done drops. The error is ctx.Err().
func (s *Shared) AnalyzeBatch(ctx context.Context, imgs []*image.Image, cfgFor func(i int) Config, done func(i int, res *Result, ad Admission, err error)) error {
	var wg sync.WaitGroup
	wg.Add(len(imgs))
	for i, img := range imgs {
		go func() {
			defer wg.Done()
			res, ad, err := s.Analyze(ctx, img, cfgFor(i))
			done(i, res, ad, err)
		}()
	}
	wg.Wait()
	return ctx.Err()
}
