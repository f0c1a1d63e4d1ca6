package eval

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// near reports |a-b| <= tol.
func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// expectRow runs a benchmark and checks measured averages against expected
// values with the given tolerance.
func expectRow(t *testing.T, name string, woM, woA, wM, wA, tol float64, wantResolvable bool) *Row {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	row, err := RunWithConfig(b, core.DefaultConfig())
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	if row.Types != b.Paper.Types {
		t.Errorf("%s: evaluated %d types, paper has %d", name, row.Types, b.Paper.Types)
	}
	if row.Resolvable != wantResolvable {
		t.Errorf("%s: resolvable=%v, want %v", name, row.Resolvable, wantResolvable)
	}
	if !near(row.WithoutMissing, woM, tol) || !near(row.WithoutAdded, woA, tol) {
		t.Errorf("%s without SLMs: missing=%.3f added=%.3f, want %.3f/%.3f",
			name, row.WithoutMissing, row.WithoutAdded, woM, woA)
	}
	if !near(row.WithMissing, wM, tol) || !near(row.WithAdded, wA, tol) {
		t.Errorf("%s with SLMs: missing=%.3f added=%.3f, want %.3f/%.3f",
			name, row.WithMissing, row.WithAdded, wM, wA)
	}
	return row
}

func TestSimpleResolvableBenchmarks(t *testing.T) {
	for _, name := range []string{"pop3", "smtp", "cppcheck", "patl", "MidiLib"} {
		t.Run(name, func(t *testing.T) {
			expectRow(t, name, 0, 0, 0, 0, 0.001, true)
		})
	}
}

// TestUnresolvableBenchmarks locks in the below-the-line rows. For rows the
// synthetic programs reproduce exactly, tolerances are tight; the two
// clique-heavy rows (Analyzer, Smoothing) assert the paper's *shape*: a
// drastic added-types reduction with a small missing-types cost.
func TestUnresolvableBenchmarks(t *testing.T) {
	t.Run("echoparams", func(t *testing.T) {
		r := expectRow(t, "echoparams", 0, 1.5, 0, 0, 0.001, false)
		if r.WithoutAdded <= r.WithAdded {
			t.Errorf("SLMs should reduce added types")
		}
	})
	t.Run("tinyserver", func(t *testing.T) {
		expectRow(t, "tinyserver", 0, 0.75, 0, 0.25, 0.001, false)
	})
	t.Run("td_unittest", func(t *testing.T) {
		expectRow(t, "td_unittest", 0, 1.0, 0, 0.5, 0.001, false)
	})
	t.Run("gperf", func(t *testing.T) {
		expectRow(t, "gperf", 0, 5.0, 0, 0.5, 0.001, false)
	})
	t.Run("libctemplate", func(t *testing.T) {
		expectRow(t, "libctemplate", 0.25, 10.0/36, 0.25, 4.0/36, 0.001, false)
	})
	t.Run("CGridListCtrlEx", func(t *testing.T) {
		expectRow(t, "CGridListCtrlEx", 0, 8.0/28, 0, 2.0/28, 0.001, false)
	})
	t.Run("ShowTraf", func(t *testing.T) {
		expectRow(t, "ShowTraf", 1.0/25, 8.0/25, 1.0/25, 2.0/25, 0.001, false)
	})
	t.Run("Analyzer", func(t *testing.T) {
		b := bench.ByName("Analyzer")
		r, err := RunWithConfig(b, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !near(r.WithMissing, 0.25, 0.001) || !near(r.WithoutMissing, 5.0/24, 0.001) {
			t.Errorf("missing: without=%.3f with=%.3f, want 0.208/0.25", r.WithoutMissing, r.WithMissing)
		}
		if r.WithoutAdded < 5 || r.WithAdded > 2 || r.WithoutAdded < 5*r.WithAdded {
			t.Errorf("added shape broken: without=%.3f with=%.3f", r.WithoutAdded, r.WithAdded)
		}
	})
	t.Run("Smoothing", func(t *testing.T) {
		b := bench.ByName("Smoothing")
		r, err := RunWithConfig(b, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !near(r.WithMissing, 7.0/31, 0.001) || !near(r.WithoutMissing, 6.0/31, 0.001) {
			t.Errorf("missing: without=%.3f with=%.3f", r.WithoutMissing, r.WithMissing)
		}
		if r.WithoutAdded < 5 || r.WithAdded > 2 || r.WithoutAdded < 5*r.WithAdded {
			t.Errorf("added shape broken: without=%.3f with=%.3f", r.WithoutAdded, r.WithAdded)
		}
	})
}

// TestRunAllTable2 exercises the complete harness end to end and checks the
// Table 2 layout invariants.
func TestRunAllTable2(t *testing.T) {
	rows, err := RunAllWithConfig(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("got %d rows, want 19", len(rows))
	}
	resolvable := 0
	for _, r := range rows {
		if r.Resolvable {
			resolvable++
		}
	}
	if resolvable != 10 {
		t.Errorf("%d structurally resolvable benchmarks, paper has 10", resolvable)
	}
	s := Table2(rows)
	for _, b := range bench.All() {
		if !strings.Contains(s, b.Name) {
			t.Errorf("table output missing benchmark %s", b.Name)
		}
	}
}

func TestEngineeredResolvableBenchmarks(t *testing.T) {
	// These match the paper's Table 2 values exactly by construction.
	t.Run("AntispyComplete", func(t *testing.T) {
		expectRow(t, "AntispyComplete", 0, 1.0/3, 0, 1.0/3, 0.001, true)
	})
	t.Run("bafprp", func(t *testing.T) {
		expectRow(t, "bafprp", 7.0/23, 0, 7.0/23, 0, 0.001, true)
	})
	t.Run("tinyxml", func(t *testing.T) {
		expectRow(t, "tinyxml", 8.0/9, 0, 8.0/9, 0, 0.001, true)
	})
	t.Run("tinyxmlSTL", func(t *testing.T) {
		expectRow(t, "tinyxmlSTL", 9.0/15, 4.0/15, 9.0/15, 4.0/15, 0.001, true)
	})
	t.Run("yafe", func(t *testing.T) {
		expectRow(t, "yafe", 0, 3.0/15, 0, 3.0/15, 0.001, true)
	})
}
