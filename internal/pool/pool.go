// Package pool provides the bounded fan-out primitives shared by the
// pipeline's parallel stages (SLM training, per-family distance matrices,
// arborescence solving, and the objtrace front-end) and by the admission
// rule of every analysis (core.Shared). Every stage follows the same
// discipline: workers write only to state owned by their index, and the
// caller merges the slots in a fixed order afterwards, so results are
// identical for any pool capacity.
//
// There is one execution regime. A fan-out draws its helpers from a
// Shared token pool: the calling goroutine always participates without
// holding a token, so a stage makes progress even when the pool is
// exhausted — nested fan-outs can never deadlock, and with a
// single-token pool every analysis degrades to serial execution. Helpers
// are recruited with a non-blocking TryAcquire as indices are claimed and
// release their token when the index space drains, so idle cores flow to
// whichever stage has runnable work. A nil pool lends no helpers: the
// loop runs serially on the caller.
package pool

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Shared is a bounded worker pool: a fixed budget of tokens, each
// representing the right to run one goroutine of analysis work. Admission
// holds one token per running analysis (the analysis's calling
// goroutine), and intra-analysis fan-outs borrow further tokens for
// transient helpers, so the goroutines doing analysis work never exceed
// the capacity. The zero value is unusable; call NewShared.
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

// ForEachChunk invokes fn(lo, hi) over contiguous half-open ranges
// covering [0,n) in steps of grain (the last range may be short), under
// the same guarantees as ForEach. Workers claim whole ranges from the
// shared counter instead of single indices, so sweeps whose per-index
// work is trivial (one distance-matrix cell) amortize the claim over
// grain items instead of drowning in scheduling overhead. The range
// decomposition is fixed by grain — independent of pool capacity and
// claim order — so index ownership stays deterministic; fn must only
// write to state owned by indices in [lo, hi). Cancellation is checked
// per range: a non-nil error means some ranges never ran.
func ForEachChunk(ctx context.Context, sh *Shared, n, grain int, fn func(lo, hi int)) error {
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	return ForEach(ctx, sh, chunks, func(ci int) {
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
// A panic in fn, on the caller or on a helper, stops the handing out of
// indices; once the in-flight calls have returned, ForEach re-panics on
// the caller with a *Panic carrying the first panic's value and stack, so
// a recover around the stage sees it whichever goroutine raised it.
//
// The caller always participates, token-free; helpers are limited to the
// tokens TryAcquire can win from sh. With sh == nil there are no helpers
// and the loop runs serially on the caller. fn must only write to state
// owned by index i; ordering across indices is not guaranteed.
func ForEach(ctx context.Context, sh *Shared, n int, fn func(i int)) error {
	if n <= 0 {
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
	done := ctx.Done()
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Pointer[Panic]
	// run pulls indices until the space is exhausted or ctx is canceled.
	// The cancellation check runs once per index: fn is never started
	// after ctx is done, but an fn already running is not interrupted.
	// Before each fn, while unclaimed indices remain, it recruits one
	// helper if sh lends a token. Recruiting per claim rather than only at
	// stage start lets a token freed mid-stage — a sibling fan-out's helper
	// finishing — join the stage still running instead of idling.
	var run func()
	run = func() {
		defer func() {
			if p := recover(); p != nil {
				pp, nested := p.(*Panic)
				if !nested {
					pp = &Panic{Value: p, Stack: debug.Stack()}
				}
				panicked.CompareAndSwap(nil, pp)
				next.Store(int64(n))
			}
		}()
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
			if sh != nil && next.Load() < int64(n) && sh.TryAcquire() {
				bus.Add(obs.CntPoolHelpers, 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer sh.Release()
					hs := bus.HelperSpan(region)
					run()
					hs.End()
				}()
			}
			fn(i)
		}
	}
	run()
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return ctx.Err()
}

// Panic is a panic raised inside a ForEach body, re-raised on the
// caller.
type Panic struct {
	Value any
	Stack []byte // the panicking goroutine's stack
}

func (p *Panic) Error() string { return fmt.Sprint(p.Value) }
