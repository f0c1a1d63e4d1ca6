package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
)

// writeJSON marshals a benchmark record to path (indented, trailing
// newline) — the single report sink every -json mode shares. A "" path
// is a no-op so modes can pass their maybe-suppressed flag through.
func writeJSON(path string, v any) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("  wrote %s\n", path)
}

// measureOp times fn in a ~200ms loop and reports ns, heap allocations,
// and heap bytes per call (the rockbench equivalent of -benchmem).
func measureOp(fn func()) (nsPerOp, allocsPerOp, bytesPerOp float64) {
	fn() // warm up
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for time.Since(start) < 200*time.Millisecond {
		fn()
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return float64(elapsed.Nanoseconds()) / n,
		float64(after.Mallocs-before.Mallocs) / n,
		float64(after.TotalAlloc-before.TotalAlloc) / n
}

// snapshotResultsEqual compares the analysis outcome of two runs field by
// field. Funcs is deliberately excluded: a warm run never lifts functions
// (documented as nil when the extraction is restored from a snapshot).
func snapshotResultsEqual(cold, warm *core.Result) bool {
	return reflect.DeepEqual(cold.VTables, warm.VTables) &&
		reflect.DeepEqual(cold.Structural, warm.Structural) &&
		reflect.DeepEqual(cold.Tracelets, warm.Tracelets) &&
		reflect.DeepEqual(cold.Alphabet, warm.Alphabet) &&
		reflect.DeepEqual(cold.Frozen, warm.Frozen) &&
		reflect.DeepEqual(cold.Dist, warm.Dist) &&
		reflect.DeepEqual(cold.Families, warm.Families) &&
		reflect.DeepEqual(cold.Hierarchy, warm.Hierarchy) &&
		reflect.DeepEqual(cold.MultiParents, warm.MultiParents)
}

// peakRSSKB reads the process's high-water resident set (VmHWM) from
// /proc/self/status; 0 on platforms without procfs.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb int64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%d", &kb)
			return kb
		}
	}
	return 0
}
