package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
)

func TestRegisterAndApply(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	dir := filepath.Join(t.TempDir(), "cache")
	if err := fs.Parse([]string{"-workers", "3", "-cache", dir, "-evidence", "slm,subtype"}); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	if err := f.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 3 || cfg.CacheDir != dir || !slices.Equal(cfg.Evidence, []string{"slm", "subtype"}) {
		t.Fatalf("applied config wrong: workers=%d cache=%q evidence=%v", cfg.Workers, cfg.CacheDir, cfg.Evidence)
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Fatalf("cache dir not created: %v", err)
	}
}

func TestResolveDefaultsAndErrors(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Resolve(); err != nil {
		t.Fatalf("defaults: %v", err)
	}

	if err := fs.Parse([]string{"-evidence", "bogus"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Resolve(); err == nil {
		t.Fatal("bogus evidence provider accepted")
	}
}
