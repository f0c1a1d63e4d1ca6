// Package cliutil holds the command-line plumbing the rock, rockbench and
// rockd commands share: the analysis flags every mode accepts (-workers,
// -cache, -incr-from, -evidence, -fuse-weights), their validation, the
// signal convention, and the error-reporting conventions — diagnostics go
// to stderr, usage mistakes exit with code 2, runtime failures with
// code 1.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/evidence"
)

// Exit codes. Usage problems (bad flags, wrong arity) and runtime
// failures (analysis errors, I/O) are distinguishable to scripts.
const (
	ExitRuntime = 1
	ExitUsage   = 2
)

// Flags is the shared analysis flag set.
type Flags struct {
	// Workers bounds the analysis worker pool (0 = all CPUs, 1 = serial).
	Workers int
	// CacheDir enables the content-addressed snapshot cache under this
	// directory ("" = no caching). Created by Resolve if missing.
	CacheDir string
	// IncrFrom names a prior version's snapshot to diff the analysis
	// against ("" = auto-discover in the cache directory).
	IncrFrom string
	// Evidence is the comma-separated evidence-provider list ("" = the
	// default SLM-only configuration), e.g. "slm,subtype".
	Evidence string
	// FuseWeights is the comma-separated per-provider fusion weight
	// override list, e.g. "slm=1,subtype=5" ("" = defaults).
	FuseWeights string
}

// Register installs the shared flags on fs and returns their destination.
// Both CLIs pass flag.CommandLine.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Workers, "workers", 0, "analysis worker pool size (0 = all CPUs, 1 = serial)")
	fs.StringVar(&f.CacheDir, "cache", "", "snapshot cache directory (created if missing); repeat analyses of the same binary reuse cached stages")
	fs.StringVar(&f.IncrFrom, "incr-from", "", "prior version's snapshot (.rsnap) to diff against for incremental re-analysis; with -cache, priors are auto-discovered")
	fs.StringVar(&f.Evidence, "evidence", "", "comma-separated edge-evidence providers to fuse: slm, subtype (default: slm alone)")
	fs.StringVar(&f.FuseWeights, "fuse-weights", "", "per-provider fusion weight overrides, e.g. slm=1,subtype=5")
	return f
}

// Resolve validates the parsed flags: the evidence and fusion-weight
// spellings must parse, and a requested cache directory is created.
func (f *Flags) Resolve() error {
	if _, err := evidence.ParseNames(f.Evidence); err != nil {
		return err
	}
	if _, err := evidence.ParseWeights(f.FuseWeights); err != nil {
		return err
	}
	if f.CacheDir != "" {
		if err := os.MkdirAll(f.CacheDir, 0o755); err != nil {
			return fmt.Errorf("creating cache directory: %w", err)
		}
	}
	return nil
}

// Apply resolves the flags and threads them into a pipeline config.
func (f *Flags) Apply(cfg *core.Config) error {
	if err := f.Resolve(); err != nil {
		return err
	}
	cfg.Workers = f.Workers
	cfg.CacheDir = f.CacheDir
	cfg.IncrementalFrom = f.IncrFrom
	cfg.Evidence, _ = evidence.ParseNames(f.Evidence)
	cfg.FuseWeights, _ = evidence.ParseWeights(f.FuseWeights)
	return nil
}

// WithSignals derives a context canceled on SIGINT or SIGTERM, so every
// CLI and the daemon share one interruption convention: first signal
// cancels the context (analyses drain through their cancellation paths),
// a second signal kills the process via the default handler. The
// returned stop restores default signal behavior.
func WithSignals(parent context.Context) (ctx context.Context, stop context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// Fatal reports a runtime failure as "prog: err" on stderr and exits
// with ExitRuntime.
func Fatal(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(ExitRuntime)
}

// Usage reports a usage mistake on stderr and exits with ExitUsage.
func Usage(prog, msg string) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, msg)
	os.Exit(ExitUsage)
}
