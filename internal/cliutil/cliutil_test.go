package cliutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRegisterAndApply(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, true)
	dir := filepath.Join(t.TempDir(), "cache")
	if err := fs.Parse([]string{"-workers", "3", "-cache", dir, "-evidence", "slm,subtype"}); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	if err := f.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 3 || cfg.CacheDir != dir || !cfg.Subtype {
		t.Fatalf("applied config wrong: workers=%d cache=%q subtype=%v", cfg.Workers, cfg.CacheDir, cfg.Subtype)
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Fatalf("cache dir not created: %v", err)
	}
}

// TestResolveDefaultsAndErrors: the zero flags resolve, and a cache
// directory that cannot be created is an error.
func TestResolveDefaultsAndErrors(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, true)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Resolve(); err != nil {
		t.Fatalf("defaults: %v", err)
	}

	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Parse([]string{"-cache", filepath.Join(file, "cache")}); err != nil {
		t.Fatal(err)
	}
	if err := f.Resolve(); err == nil {
		t.Fatal("cache directory under a regular file accepted")
	}
}

// TestEvidenceSpellings: -evidence accepts exactly "", "slm" and
// "slm,subtype"; every other spelling, and the deleted -fuse-weights
// flag, fails the parse (which the commands turn into exit code 2).
func TestEvidenceSpellings(t *testing.T) {
	parse := func(args ...string) (*Flags, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := Register(fs, true)
		return f, fs.Parse(args)
	}
	for _, tc := range []struct {
		args    []string
		subtype bool
	}{
		{nil, false},
		{[]string{"-evidence", ""}, false},
		{[]string{"-evidence", "slm"}, false},
		{[]string{"-evidence", "slm,subtype"}, true},
		{[]string{"-evidence", "slm,subtype", "-evidence", "slm"}, false},
	} {
		f, err := parse(tc.args...)
		if err != nil || f.Subtype != tc.subtype {
			t.Errorf("%q: subtype=%v err=%v, want subtype=%v", tc.args, f.Subtype, err, tc.subtype)
		}
	}
	for _, bad := range [][]string{
		{"-evidence", "bogus"},
		{"-evidence", "subtype"},
		{"-evidence", "subtype,slm"},
		{"-evidence", "slm,slm"},
		{"-evidence", " slm"},
		{"-evidence", "slm, subtype"},
		{"-fuse-weights", "slm=1"},
	} {
		if _, err := parse(bad...); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestIncrFromOnlyWhenIncremental: -incr-from exists only when Register
// is asked for it. rockd registers without it, so its usage does not
// list the flag and the parser rejects it (exit code 2 in the commands)
// instead of accepting a prior the daemon would never read.
func TestIncrFromOnlyWhenIncremental(t *testing.T) {
	for _, incremental := range []bool{true, false} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		var usage strings.Builder
		fs.SetOutput(&usage)
		f := Register(fs, incremental)
		fs.PrintDefaults()
		if listed := strings.Contains(usage.String(), "-incr-from"); listed != incremental {
			t.Errorf("incremental=%v: usage lists -incr-from: %v", incremental, listed)
		}
		err := fs.Parse([]string{"-incr-from", "/nonexistent.rsnap"})
		if incremental && (err != nil || f.IncrFrom != "/nonexistent.rsnap") {
			t.Errorf("incremental: -incr-from not parsed: IncrFrom=%q err=%v", f.IncrFrom, err)
		}
		if !incremental && err == nil {
			t.Error("non-incremental: -incr-from accepted")
		}
	}
}
