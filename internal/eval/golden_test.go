package eval

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files with the current measurements")

// goldenRows renders the Table 2 measurements in a stable, diffable form.
// Only measured values appear (the paper's reference numbers are static
// data); four decimals is far below the determinism guarantee but far
// above the noise floor of any legitimate accuracy change.
func goldenRows(rows []*Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s types=%-3d resolvable=%-5v without=%.4f/%.4f with=%.4f/%.4f\n",
			r.Name, r.Types, r.Resolvable,
			r.WithoutMissing, r.WithoutAdded, r.WithMissing, r.WithAdded)
	}
	return b.String()
}

// TestTable2Golden snapshots the full Table 2 evaluation. Performance PRs
// (parallelism, caching, algorithmic changes) must not silently change
// accuracy: any drift fails here and has to be acknowledged by rerunning
// with -update and justifying the new numbers in EXPERIMENTS.md.
func TestTable2Golden(t *testing.T) {
	rows, err := RunAllWithConfig(core.DefaultConfig())
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	got := goldenRows(rows)

	golden := filepath.Join("testdata", "table2.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/eval -run TestTable2Golden -update`): %v", err)
	}
	if got == string(want) {
		return
	}
	// Report per-line differences: naming the drifted benchmark beats a
	// full-file dump.
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("benchmark count changed: got %d rows, golden has %d\n--- got ---\n%s--- want ---\n%s",
			len(gotLines), len(wantLines), got, want)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("accuracy drift:\n  got:  %s\n  want: %s", gotLines[i], wantLines[i])
		}
	}
}

// TestTable2GoldenWarmCache reruns the full Table 2 evaluation through the
// snapshot cache: a first pass populates a fresh cache directory, a second
// fully-warm pass restores every stage from disk — and must reproduce the
// golden file byte for byte. This is the accuracy half of the snapshot
// acceptance criterion (the speed half is rockperf's table2-warm).
func TestTable2GoldenWarmCache(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CacheDir = t.TempDir()
	if _, err := RunAllWithConfig(cfg); err != nil {
		t.Fatalf("cold pass: %v", err)
	}
	rows, err := RunAllWithConfig(cfg)
	if err != nil {
		t.Fatalf("warm pass: %v", err)
	}
	got := goldenRows(rows)
	want, err := os.ReadFile(filepath.Join("testdata", "table2.golden"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if got != string(want) {
		t.Errorf("warm-cache evaluation drifted from the golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
