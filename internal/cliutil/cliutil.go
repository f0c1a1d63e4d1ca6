// Package cliutil holds the command-line plumbing the rock, rockbench and
// rockd commands share: the analysis flags (-workers, -cache, -evidence,
// and -incr-from for the commands that analyze one binary at a time),
// their validation, the signal
// convention, and the error-reporting conventions — diagnostics go to
// stderr, usage mistakes (invalid analysis options included) exit with
// code 2, runtime failures with code 1.
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/rock"
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
	// against ("" = auto-discover in the cache directory). Only set when
	// Register installed -incr-from.
	IncrFrom string
	// Subtype fuses the subtype evidence into the SLM sweep: -evidence
	// slm,subtype sets it, "" and "slm" leave it false.
	Subtype bool
}

// The -evidence spellings: the SLM/KL sweep alone, and fused with the
// subtype scorer (sets Flags.Subtype).
const (
	slmOnly = "slm"
	fused   = "slm,subtype"
)

// evidenceFlag parses -evidence into Flags.Subtype.
type evidenceFlag struct{ subtype *bool }

// String renders the current setting. The flag package also calls it on
// a zero evidenceFlag, whose pointer is nil, to print defaults.
func (e evidenceFlag) String() string {
	if e.subtype != nil && *e.subtype {
		return fused
	}
	return ""
}

// Set accepts exactly "", "slm" and "slm,subtype".
func (e evidenceFlag) Set(s string) error {
	switch s {
	case "", slmOnly:
		*e.subtype = false
	case fused:
		*e.subtype = true
	default:
		return fmt.Errorf("want %q or %q", slmOnly, fused)
	}
	return nil
}

// Register installs the shared flags on fs and returns their destination.
// The commands pass flag.CommandLine. incremental installs -incr-from,
// an explicit prior for one binary, which only rock takes; rockd and
// rockbench, which analyze many different binaries and find each one's
// prior in the cache, leave it off, so the flag parser rejects it there.
func Register(fs *flag.FlagSet, incremental bool) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Workers, "workers", 0, "analysis worker pool size (0 = all CPUs, 1 = serial)")
	fs.StringVar(&f.CacheDir, "cache", "", "snapshot cache directory (created if missing); a repeat analysis under the same configuration restores warm, other analyses reuse unchanged functions, models and families")
	if incremental {
		fs.StringVar(&f.IncrFrom, "incr-from", "", "prior version's snapshot (.rsnap) to diff against for incremental re-analysis; with -cache, priors are auto-discovered")
	}
	fs.Var(evidenceFlag{&f.Subtype}, "evidence", "edge-evidence `scorers`: slm (the SLM sweep alone, the default) or slm,subtype (fuse the subtype scores in)")
	return f
}

// Resolve creates a requested cache directory.
func (f *Flags) Resolve() error {
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
	cfg.Subtype = f.Subtype
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

// Fatal reports err as "prog: err" on stderr and exits: with ExitUsage
// when err is an invalid analysis option (rock.ErrInvalidOption), with
// ExitRuntime otherwise.
func Fatal(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	if errors.Is(err, rock.ErrInvalidOption) {
		os.Exit(ExitUsage)
	}
	os.Exit(ExitRuntime)
}

// Usage reports a usage mistake on stderr and exits with ExitUsage.
func Usage(prog, msg string) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, msg)
	os.Exit(ExitUsage)
}
