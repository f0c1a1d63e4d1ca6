#!/usr/bin/env bash
# Builds rockperf from the sources of this checkout and runs it with the
# given flags. Run it from the repository root, for example:
#
#   bash cmd/rockperf/run.sh --workload deep-cold --seed 1 --seconds 15 --trace 0
#   bash cmd/rockperf/run.sh -seed 1 -out runs.json
#
# rockperf is a module of its own that builds the repository's packages
# from ../.. (see go.mod), so the build needs nothing outside this
# checkout. Everything the build and the run write stays under
# .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
go -C "$root/cmd/rockperf" build -o "$out/rockperf" .
exec "$out/rockperf" "$@"
