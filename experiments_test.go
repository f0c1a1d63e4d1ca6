package repro_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsTable2MatchesGolden checks every measured cell of
// EXPERIMENTS.md's Table 2 against internal/eval/testdata/table2.golden,
// rounded to two decimals, so the published table cannot drift from the
// numbers the golden test pins.
func TestExperimentsTable2MatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("internal/eval/testdata/table2.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		var name, resolvable string
		var types int
		var wom, woa, wm, wa float64
		if _, err := fmt.Sscanf(strings.Join(strings.Fields(line), " "),
			"%s types=%d resolvable=%s without=%f/%f with=%f/%f",
			&name, &types, &resolvable, &wom, &woa, &wm, &wa); err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		want[name] = fmt.Sprintf("%d %.2f %.2f %.2f %.2f", types, wom, woa, wm, wa)
	}

	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	start := strings.Index(section, "## Table 2")
	if start < 0 {
		t.Fatal("EXPERIMENTS.md has no Table 2 section")
	}
	section = section[start:]
	got := map[string]string{}
	for _, line := range strings.Split(section, "\n")[1:] {
		if strings.HasPrefix(line, "## ") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 6 || strings.HasPrefix(strings.TrimSpace(cells[1]), "-") {
			continue
		}
		if _, err := strconv.Atoi(strings.TrimSpace(cells[1])); err != nil {
			continue // the header row
		}
		row := strings.TrimSpace(cells[1])
		for _, c := range cells[2:] {
			// "**0.21** (0.21)": the measured value, then the paper's.
			row += " " + strings.Trim(strings.Fields(c)[0], "*")
		}
		got[strings.TrimSpace(cells[0])] = row
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("EXPERIMENTS.md Table 2 has no row for %s", name)
		} else if g != w {
			t.Errorf("%s: EXPERIMENTS.md reads %q, golden %q (types, w/o missing, w/o added, with missing, with added)", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("EXPERIMENTS.md Table 2 has %d rows, the golden %d", len(got), len(want))
	}
}
