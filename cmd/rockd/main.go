// Command rockd serves the analysis pipeline as a long-running HTTP
// daemon for fleet-scale workloads, where the same binaries are
// submitted over and over.
//
// Usage:
//
//	rockd [-listen ADDR] [-metric kl|js-divergence|js-distance]
//	      [-depth D] [-window W] [-workers N] [-cache DIR]
//	      [-evidence slm|slm,subtype]
//	      [-hot-cache-mb MB] [-max-body-mb MB]
//	      [-interactive-slots N] [-interactive-queue N]
//	      [-batch-slots N] [-batch-queue N] [-drain SECONDS]
//
// Endpoints:
//
//	POST /v1/analyze?class=interactive|batch   image body -> report (waits)
//	POST /v1/submit?class=batch                image body -> 202 (async)
//	GET  /v1/result/{digest}                   poll an async submission
//	GET  /metrics                              counters, queues, stage rollup
//	GET  /healthz                              liveness (503 while draining)
//
// Identical concurrent submissions (same content digest) are collapsed
// into one analysis; finished results serve from a bounded in-memory hot
// cache with no snapshot decode or disk I/O. With -cache DIR the on-disk
// snapshot store backs the hot cache — evicted or post-restart
// submissions restore warm, and new versions of known binaries ride the
// incremental lane automatically. SIGINT/SIGTERM drains gracefully:
// intake stops, in-flight analyses finish (bounded by -drain), then the
// process exits. An invalid analysis option (an unknown -metric or
// -evidence, a negative -depth or -window) refuses to start with exit
// code 2, as rock does.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/rockd"
	"repro/rock"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7661", "address to serve on")
	metric := flag.String("metric", "kl", "pairwise distance: kl, js-divergence, js-distance")
	depth := flag.Int("depth", 2, "SLM maximum order D")
	window := flag.Int("window", 7, "object tracelet window length")
	shared := cliutil.Register(flag.CommandLine, false)
	hotMB := flag.Int("hot-cache-mb", 256, "in-memory hot result cache budget in MiB")
	maxBodyMB := flag.Int("max-body-mb", 64, "largest accepted image in MiB")
	iSlots := flag.Int("interactive-slots", 0, "concurrent interactive analyses (0 = worker count)")
	iQueue := flag.Int("interactive-queue", 0, "queued interactive submissions before 429 (0 = 256)")
	bSlots := flag.Int("batch-slots", 0, "concurrent batch analyses (0 = half the workers)")
	bQueue := flag.Int("batch-queue", 0, "queued batch submissions before 429 (0 = 4096)")
	drain := flag.Int("drain", 30, "seconds to let in-flight work finish on shutdown")
	flag.Parse()
	if flag.NArg() != 0 {
		cliutil.Usage("rockd", "usage: rockd [flags] (no positional arguments)")
	}
	if err := shared.Resolve(); err != nil {
		cliutil.Fatal("rockd", err)
	}

	srv, err := rockd.New(rockd.Config{
		Analysis: rock.Options{
			Metric:   *metric,
			SLMDepth: *depth,
			Window:   *window,
			Workers:  shared.Workers,
			CacheDir: shared.CacheDir,
			Subtype:  shared.Subtype,
			// IncrementalFrom stays empty, and rockd registers no
			// -incr-from: the daemon analyzes many different binaries, so
			// each image's prior is auto-discovered by reading the header
			// of every snapshot in the cache directory and matching the
			// image's name hash.
		},
		HotCacheBytes:    int64(*hotMB) << 20,
		MaxBodyBytes:     int64(*maxBodyMB) << 20,
		InteractiveSlots: *iSlots,
		InteractiveQueue: *iQueue,
		BatchSlots:       *bSlots,
		BatchQueue:       *bQueue,
		DrainTimeout:     time.Duration(*drain) * time.Second,
	})
	if err != nil {
		cliutil.Fatal("rockd", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		cliutil.Fatal("rockd", err)
	}
	ctx, stop := cliutil.WithSignals(context.Background())
	defer stop()
	fmt.Fprintf(os.Stderr, "rockd: serving on http://%s (workers=%d, hot cache %d MiB, cache dir %q)\n",
		ln.Addr(), srv.Workers(), *hotMB, shared.CacheDir)
	if err := srv.Serve(ctx, ln); err != nil {
		cliutil.Fatal("rockd", err)
	}
	fmt.Fprintln(os.Stderr, "rockd: drained, bye")
}
