// Package pool provides the bounded fan-out primitives shared by the
// pipeline's parallel stages (SLM training, per-family distance matrices,
// arborescence solving, and the objtrace front-end) and by the shared
// admission rule of many concurrent analyses (core.Shared). Every stage
// follows the same discipline: workers write only to state owned by their
// index, and the caller merges the slots in a fixed order afterwards, so
// results are identical for any worker count.
//
// Two execution regimes share one code path:
//
//   - Private fan-out (ForEachIndex, or ForEach with a nil Shared): the
//     stage brings its own concurrency budget — the calling goroutine
//     participates and up to workers-1 helpers are spawned for the
//     duration of the stage.
//
//   - Shared fan-out (ForEach with a Shared): the stage draws helpers
//     from a corpus-wide token pool instead of owning them. The calling
//     goroutine always participates without holding a token, so a stage
//     makes progress even when the pool is exhausted — nested fan-outs
//     can never deadlock, and with a single-token pool the whole corpus
//     degrades to today's serial behavior. Helpers are acquired with a
//     non-blocking TryAcquire at stage start and released when the index
//     space drains, so idle cores flow to whichever image has runnable
//     work.
package pool

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Shared is a corpus-wide bounded worker pool: a fixed budget of tokens,
// each representing the right to run one goroutine of analysis work.
// Corpus admission holds one token per in-flight image (the image's
// calling goroutine), and intra-analysis fan-outs borrow further tokens
// for transient helpers. The zero value is unusable; call NewShared.
type Shared struct {
	tokens chan struct{}
}

// NewShared returns a pool with capacity n (minimum 1).
func NewShared(n int) *Shared {
	if n < 1 {
		n = 1
	}
	return &Shared{tokens: make(chan struct{}, n)}
}

// Cap returns the pool capacity.
func (s *Shared) Cap() int { return cap(s.tokens) }

// Acquire blocks until a token is available or ctx is done, returning
// ctx.Err() in the latter case.
func (s *Shared) Acquire(ctx context.Context) error {
	select {
	case s.tokens <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a token without blocking; it reports whether one was
// available.
func (s *Shared) TryAcquire() bool {
	select {
	case s.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a token to the pool.
func (s *Shared) Release() { <-s.tokens }

// ForEachIndex invokes fn(i) for every i in [0,n), spread over at most
// workers goroutines (the caller plus workers-1 helpers) pulling indices
// from a shared atomic counter. With workers <= 1 (or a single item) it
// degenerates to a plain loop on the calling goroutine — the serial path.
// fn must only write to state owned by index i; ordering across indices
// is not guaranteed.
func ForEachIndex(workers, n int, fn func(i int)) {
	// A background context can never cancel, so the error is always nil.
	_ = ForEach(context.Background(), nil, workers, n, fn)
}

// ForEachChunk invokes fn(lo, hi) over contiguous half-open ranges
// covering [0,n) in steps of grain (the last range may be short), under
// the same regimes and guarantees as ForEach. Workers claim whole ranges
// from the shared counter instead of single indices, so sweeps whose
// per-index work is trivial (one distance-matrix cell) amortize the claim
// over grain items instead of drowning in scheduling overhead. The range
// decomposition is fixed by grain — independent of worker count and claim
// order — so index ownership stays deterministic; fn must only write to
// state owned by indices in [lo, hi). Cancellation is checked per range:
// a non-nil error means some ranges never ran.
func ForEachChunk(ctx context.Context, sh *Shared, workers, n, grain int, fn func(lo, hi int)) error {
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	return ForEach(ctx, sh, workers, chunks, func(ci int) {
		lo := ci * grain
		fn(lo, min(lo+grain, n))
	})
}

// ForEach invokes fn(i) for every i in [0,n) and returns nil, unless ctx
// is canceled first, in which case it stops handing out new indices,
// waits for the in-flight fn calls to return, and reports ctx.Err().
// Callers must treat a non-nil error as "index slots are incomplete" and
// discard the stage's output.
//
// With sh == nil the stage runs on the caller plus up to workers-1
// spawned helpers (the private regime). With a Shared pool, workers caps
// nothing: the caller always participates token-free and helpers are
// limited to the tokens TryAcquire can win, up to n-1 — the shared
// regime described in the package comment.
func ForEach(ctx context.Context, sh *Shared, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	helpers := workers - 1
	if sh != nil {
		helpers = sh.Cap()
	}
	if helpers > n-1 {
		helpers = n - 1
	}

	done := ctx.Done()
	var next atomic.Int64
	// run pulls indices until the space is exhausted or ctx is canceled.
	// The cancellation check runs once per index: fn is never started
	// after ctx is done, but an fn already running is not interrupted.
	run := func() {
		for {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}

	if helpers <= 0 {
		run()
		return ctx.Err()
	}
	// Observability: an observed context carries its bus; each spawned
	// helper is counted and, when tracing, drawn as a span on its own lane
	// named after the fan-out region. BusFrom on an unobserved context is a
	// value lookup with no allocation, keeping the disabled path free.
	bus := obs.BusFrom(ctx)
	region := ""
	if bus != nil {
		if region = obs.RegionFrom(ctx); region == "" {
			region = "fanout"
		}
	}
	var wg sync.WaitGroup
	spawned := 0
	for w := 0; w < helpers; w++ {
		if sh != nil && !sh.TryAcquire() {
			break // pool exhausted: whatever helpers we won suffice
		}
		spawned++
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sh != nil {
				defer sh.Release()
			}
			hs := bus.HelperSpan(region)
			run()
			hs.End()
		}()
	}
	bus.Add(obs.CntPoolHelpers, int64(spawned))
	run()
	wg.Wait()
	return ctx.Err()
}
