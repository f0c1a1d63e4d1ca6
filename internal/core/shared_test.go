package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/snapshot"
)

// TestSharedWarmNeverWaitsBehindCold: with every pool token held, a
// fully warm image still decodes, while a cold one waits for a token
// until its context gives up.
func TestSharedWarmNeverWaitsBehindCold(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	analyzeCached(t, img, cfg)

	s := NewShared(1)
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()
	res, ad, err := s.Analyze(context.Background(), img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ad.Warm || res.SnapshotReuse != snapshot.LevelHierarchy {
		t.Fatalf("warm image behind a held pool: warm=%v reuse level %d", ad.Warm, res.SnapshotReuse)
	}

	cold := cfg
	cold.CacheDir = t.TempDir() // empty: the probe finds no snapshot
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, ad, err := s.Analyze(ctx, img, cold); ad.Warm || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cold image ran without a pool token: warm=%v err=%v", ad.Warm, err)
	}
}
