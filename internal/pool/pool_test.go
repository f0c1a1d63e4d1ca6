package pool

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachIndex checks the worker-pool primitive: every index is
// visited exactly once on the nil pool (the serial path) and on pools of
// several capacities, including the degenerate shapes (empty range, more
// tokens than items).
func TestForEachIndex(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 4, 13} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			var sh *Shared
			if capacity > 0 {
				sh = NewShared(capacity)
			}
			hits := make([]int32, n)
			if err := ForEach(context.Background(), sh, n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			}); err != nil {
				t.Fatalf("cap=%d n=%d: unexpected error %v", capacity, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("cap=%d n=%d: index %d visited %d times", capacity, n, i, h)
				}
			}
		}
	}
}

// TestForEachNilPoolSerial: without a pool no helper is spawned — every
// fn runs on the calling goroutine, one at a time.
func TestForEachNilPoolSerial(t *testing.T) {
	var running atomic.Int32
	var overlapped atomic.Bool
	if err := ForEach(context.Background(), nil, 64, func(i int) {
		if running.Add(1) > 1 {
			overlapped.Store(true)
		}
		time.Sleep(10 * time.Microsecond)
		running.Add(-1)
	}); err != nil {
		t.Fatal(err)
	}
	if overlapped.Load() {
		t.Fatal("nil pool ran fns concurrently")
	}
}

// TestForEachShared runs fan-outs against a shared token pool: every
// index is still visited exactly once, and the concurrently running fn
// count never exceeds the pool capacity plus the one token-free caller.
func TestForEachShared(t *testing.T) {
	for _, capacity := range []int{1, 2, 4} {
		sh := NewShared(capacity)
		var running, peak atomic.Int32
		hits := make([]int32, 64)
		err := ForEach(context.Background(), sh, len(hits), func(i int) {
			r := running.Add(1)
			for {
				p := peak.Load()
				if r <= p || peak.CompareAndSwap(p, r) {
					break
				}
			}
			atomic.AddInt32(&hits[i], 1)
			time.Sleep(100 * time.Microsecond)
			running.Add(-1)
		})
		if err != nil {
			t.Fatalf("cap=%d: unexpected error %v", capacity, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("cap=%d: index %d visited %d times", capacity, i, h)
			}
		}
		if p := int(peak.Load()); p > capacity+1 {
			t.Errorf("cap=%d: %d fns ran concurrently, want <= %d", capacity, p, capacity+1)
		}
		if len(sh.tokens) != 0 {
			t.Errorf("cap=%d: %d tokens leaked", capacity, len(sh.tokens))
		}
	}
}

// TestForEachRecruitsFreedTokens: a token freed while a stage runs joins
// that stage. The pool's only token is held elsewhere when the stage
// starts, so no helper can join then; fn(0) frees it, and a later claim
// must recruit a helper that runs fns alongside the caller.
func TestForEachRecruitsFreedTokens(t *testing.T) {
	sh := NewShared(1)
	sh.tokens <- struct{}{} // held by someone else at stage start
	var running, peak atomic.Int32
	err := ForEach(context.Background(), sh, 64, func(i int) {
		if i == 0 {
			sh.Release() // the holder lets go mid-stage
		}
		r := running.Add(1)
		for {
			p := peak.Load()
			if r <= p || peak.CompareAndSwap(p, r) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		running.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p < 2 {
		t.Errorf("peak %d concurrent fns: the freed token never joined the stage", p)
	}
	if len(sh.tokens) != 0 {
		t.Errorf("%d tokens leaked", len(sh.tokens))
	}
}

// TestForEachSharedNestedProgress: a fan-out nested inside another
// fan-out's fn must complete even when the pool is fully exhausted — the
// caller always participates token-free, so nesting cannot deadlock.
func TestForEachSharedNestedProgress(t *testing.T) {
	sh := NewShared(1)
	sh.tokens <- struct{}{} // exhaust the pool
	defer func() { <-sh.tokens }()
	var count atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ForEach(context.Background(), sh, 8, func(i int) {
			_ = ForEach(context.Background(), sh, 4, func(j int) {
				count.Add(1)
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("nested fan-out deadlocked on an exhausted pool")
	}
	if got := count.Load(); got != 32 {
		t.Fatalf("nested fan-out ran %d inner calls, want 32", got)
	}
}

// TestForEachCancellation is the pool half of the corpus cancellation
// guarantee: canceling the context mid-fan-out stops new indices promptly,
// drains the in-flight workers without deadlock, reports ctx.Err(), and
// leaks no goroutines.
func TestForEachCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, sh := range []*Shared{nil, NewShared(4)} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		release := make(chan struct{})
		var once sync.Once
		const n = 10000
		err := ForEach(ctx, sh, n, func(i int) {
			started.Add(1)
			once.Do(func() {
				cancel()
				close(release)
			})
			<-release
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("sh=%v: err = %v, want context.Canceled", sh != nil, err)
		}
		// Cancellation raced with index pulls already past the check, so a
		// handful of extra fns may have started — but nowhere near all n.
		if s := started.Load(); s == 0 || s >= n {
			t.Fatalf("sh=%v: %d of %d fns started under cancellation", sh != nil, s, n)
		}
		if sh != nil && len(sh.tokens) != 0 {
			t.Fatalf("canceled fan-out leaked %d tokens", len(sh.tokens))
		}
	}
	// All helper goroutines must have drained (the fan-out waits for them
	// before returning, so only scheduler lag can delay the count).
	for deadline := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSharedAcquire covers the token pool's blocking and non-blocking
// acquisition paths, including cancellation while blocked.
func TestSharedAcquire(t *testing.T) {
	sh := NewShared(2)
	if sh.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", sh.Cap())
	}
	if err := sh.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !sh.TryAcquire() {
		t.Fatal("TryAcquire failed with a free token")
	}
	if sh.TryAcquire() {
		t.Fatal("TryAcquire succeeded on an exhausted pool")
	}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if err := sh.Acquire(ctx); err != context.Canceled {
		t.Fatalf("Acquire on exhausted pool = %v, want context.Canceled", err)
	}
	sh.Release()
	sh.Release()
	if NewShared(0).Cap() != 1 {
		t.Fatal("NewShared(0) must clamp to capacity 1")
	}
}

// TestForEachChunk checks the chunked variant: the ranges returned for
// every (n, grain, pool) shape tile [0,n) exactly — contiguous,
// non-overlapping, each boundary a multiple of grain — so chunked sweeps
// keep the index-ownership determinism of ForEach. Capacity 0 is the nil
// pool, the serial path.
func TestForEachChunk(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 4} {
		var sh *Shared
		if capacity > 0 {
			sh = NewShared(capacity)
		}
		for _, n := range []int{0, 1, 5, 64, 100, 257} {
			for _, grain := range []int{-1, 0, 1, 3, 64, 1000} {
				hits := make([]int32, n)
				err := ForEachChunk(context.Background(), sh, n, grain, func(lo, hi int) {
					if lo >= hi {
						t.Errorf("cap=%d n=%d grain=%d: empty range [%d,%d)", capacity, n, grain, lo, hi)
					}
					g := grain
					if g < 1 {
						g = 1
					}
					if lo%g != 0 || (hi != n && hi-lo != g) {
						t.Errorf("cap=%d n=%d grain=%d: misaligned range [%d,%d)", capacity, n, grain, lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("cap=%d n=%d grain=%d: index %d visited %d times", capacity, n, grain, i, h)
					}
				}
			}
		}
	}
}

// TestForEachChunkShared exercises the shared-pool regime and
// cancellation: a canceled context must surface as an error with no
// double-visited index.
func TestForEachChunkShared(t *testing.T) {
	sh := NewShared(3)
	hits := make([]int32, 1000)
	if err := ForEachChunk(context.Background(), sh, len(hits), 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	}); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	var visited atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- ForEachChunk(ctx, sh, 1<<30, 8, func(lo, hi int) {
			visited.Add(1)
			cancel()
		})
	}()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled chunked fan-out did not drain")
	}
	if visited.Load() == 0 {
		t.Fatal("no chunk ran before cancellation")
	}
}

// TestForEachHelperPanic: a panic on a helper goroutine — index 1 runs on
// the helper while the caller blocks in index 0 — comes back to the
// caller as a *Panic with the value and the helper's stack, and only
// after every in-flight call has returned.
func TestForEachHelperPanic(t *testing.T) {
	onHelper := make(chan struct{})
	var returned atomic.Bool
	defer func() {
		p, ok := recover().(*Panic)
		if !ok || p.Value != "boom" || !strings.Contains(string(p.Stack), "TestForEachHelperPanic") {
			t.Fatalf("recovered %#v, want a *Panic of \"boom\" with the helper's stack", p)
		}
		if !returned.Load() {
			t.Fatal("re-panicked before the caller's own call returned")
		}
	}()
	ForEach(context.Background(), NewShared(2), 2, func(i int) {
		if i == 1 {
			close(onHelper)
			panic("boom")
		}
		select {
		case <-onHelper:
		case <-time.After(5 * time.Second):
			t.Error("index 1 never ran on a helper")
		}
		returned.Store(true)
	})
	t.Fatal("ForEach returned normally after a panic")
}
