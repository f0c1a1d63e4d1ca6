package main

import (
	"context"
	"encoding/json"
	"io"
	"regexp"
	"testing"
	"time"
)

var nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func benchmarkJSON(t *testing.T) (string, *benchmarkFile) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := readBenchmark(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, b
}

// TestNamesMatchBenchmarkJSON pins the metric and workload tables of the
// program to BENCHMARK.json, name for name and in order.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	_, b := benchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workloads[%d] = %s, program has %s", i, w.Name, workloads[i].name)
		}
	}
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		if !nameGrammar.MatchString(s.name) {
			t.Errorf("metric name %q breaks the name grammar", s.name)
		}
	}
}

// TestEveryWorkload runs each workload for a fraction of a second,
// traced, and checks that it reports exactly BENCHMARK.json's metrics
// and that every result matched its reference.
func TestEveryWorkload(t *testing.T) {
	root, _ := benchmarkJSON(t)
	want := map[string]bool{}
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		want[s.name] = true
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			seconds := 0.4
			if w.name == "rockd-mix" {
				// Only requests that overlap no batch analysis are timed; in
				// a shorter run the first analysis can cover them all.
				seconds = 2
			}
			rec, err := runWorkload(context.Background(), params{
				workload: w.name, seed: 3, seconds: seconds, traced: true, root: root, work: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			for name := range rec.Metrics {
				if !want[name] {
					t.Errorf("unknown metric %q", name)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("reported %d metrics, want %d", len(rec.Metrics), len(want))
			}
			if rec.Failed != 0 || !rec.Correct || rec.Attempted == 0 {
				t.Errorf("failed %d of %d checks: %v", rec.Failed, rec.Attempted, rec.Failures)
			}
			if rec.Metrics["cost_p50"].Value <= 0 || rec.Metrics["setup_s"].Value <= 0 {
				t.Errorf("timings not measured: %+v", rec.Metrics)
			}
		})
	}
}

// TestWrongReferenceFails gives a workload a reference hierarchy with
// one edge moved: every analysis of that image must count as a failed
// check, and the run must still finish.
func TestWrongReferenceFails(t *testing.T) {
	root, _ := benchmarkJSON(t)
	env := &runEnv{seed: 1, workers: 2, dur: 200 * time.Millisecond, work: t.TempDir(), root: root}
	w := &table2{warm: true}
	ref, err := startReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	tl := &tally{ref: ref}
	if err := w.setup(context.Background(), env, tl); err != nil {
		t.Fatal(err)
	}
	var c compared
	in := w.ins[len(w.ins)-1]
	if err := json.Unmarshal([]byte(in.ref), &c); err != nil || len(c.Edges) < 2 {
		t.Fatalf("reference of %s: %v (%d edges)", in.name, err, len(c.Edges))
	}
	c.Edges[0].Parent = c.Edges[1].Child
	in.ref = canonOf(c)
	if err := w.measure(context.Background(), tl); err != nil {
		t.Fatal(err)
	}
	if tl.failed == 0 || tl.failed > tl.attempted {
		t.Fatalf("failed %d of %d checks, want every pass to fail", tl.failed, tl.attempted)
	}
}

// TestVerdicts covers the comparison rules on made-up run sets.
func TestVerdicts(t *testing.T) {
	lower := bounded{Name: "cost_p50", Better: "lower", Bound: 0.1}
	for _, tc := range []struct {
		base, new []float64
		want      string
	}{
		{[]float64{100, 101, 99, 100, 102}, []float64{101, 100, 99, 102, 100}, "same"},
		{[]float64{100, 101, 99, 100, 102}, []float64{120, 121, 119, 122, 120}, "worse"},
		{[]float64{100, 101, 99, 100, 102}, []float64{80, 81, 79, 82, 80}, "better"},
		{[]float64{100, 150, 60, 100, 130}, []float64{101, 100, 99, 102, 100}, "unresolved"},
		{[]float64{100, 150, 60, 100, 130}, []float64{20, 21, 19, 22, 20}, "better"},
	} {
		if got, _ := verdict(tc.base, tc.new, lower); got != tc.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", tc.base, tc.new, got, tc.want)
		}
	}
	higher := bounded{Name: "throughput", Better: "higher", Bound: 0.1}
	if got, _ := verdict([]float64{10, 10, 10}, []float64{8, 8, 8}, higher); got != "worse" {
		t.Errorf("lower throughput: %s, want worse", got)
	}
}

// TestCompareFailsOnLoss checks that -compare fails when NEW lacks a
// workload or a metric that BASE has (a crashed run leaves no record),
// or when NEW failed more checks, and passes on identical run sets.
func TestCompareFailsOnLoss(t *testing.T) {
	_, bm := benchmarkJSON(t)
	var all []string
	for _, w := range bm.Workloads {
		all = append(all, w.Name)
	}
	runs := func(wls ...string) *series {
		s := &series{vals: map[string]map[string][]float64{}, failed: map[string]int{}, attempted: map[string]int{}}
		for _, w := range wls {
			s.vals[w] = map[string][]float64{}
			for _, m := range bm.EndToEnd {
				s.vals[w][m.Name] = []float64{1, 1, 1}
			}
			s.attempted[w] = 3
		}
		return s
	}
	noMetric := runs(all...)
	delete(noMetric.vals[all[0]], "cost_p50")
	moreFailed := runs(all...)
	moreFailed.failed[all[0]] = 1
	for _, tc := range []struct {
		name string
		new  *series
		want int
	}{
		{"identical", runs(all...), 0},
		{"workload missing", runs(all[1:]...), 1},
		{"metric missing", noMetric, 1},
		{"more failed checks", moreFailed, 1},
	} {
		if got := compareSeries(io.Discard, bm, runs(all...), tc.new); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestScaled checks that an op is scaled by the median of the kernel runs
// nearest to it, at either end of the run and in between.
func TestScaled(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(sec int, cpu time.Duration) refSample {
		return refSample{start: t0.Add(time.Duration(sec) * time.Second), done: t0.Add(time.Duration(sec) * time.Second), cpu: cpu}
	}
	// Kernel runs at 0..5 s; the one at 3 s ran at half speed.
	var refs []refSample
	for s, cpu := range []time.Duration{refNominal, refNominal, refNominal, 2 * refNominal, 2 * refNominal, 2 * refNominal} {
		refs = append(refs, at(s, cpu))
	}
	for _, tc := range []struct {
		sec  int
		want float64
	}{
		{0, 10},  // nearest 0, 1, 2 s: full speed
		{1, 10},  // 0, 1, 2 s
		{4, 5},   // 3, 4, 5 s: half speed
		{9, 5},   // past the end: 3, 4, 5 s
		{-3, 10}, // before the start: 0, 1, 2 s
	} {
		got, err := scaled(at(tc.sec, 10*time.Millisecond), refs) // 10 CPU ms
		if err != nil || got != tc.want {
			t.Errorf("op at %d s: %g ref-ms (%v), want %g", tc.sec, got, err, tc.want)
		}
	}
	if _, err := scaled(at(0, time.Millisecond), nil); err == nil {
		t.Error("no kernel runs: want an error")
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{7, 1, 3, 9, 5, 11, 13, 15, 17, 19})
	if q1 != 4.5 || q2 != 10 || q3 != 15.5 {
		t.Errorf("quartiles = %g %g %g, want 4.5 10 15.5", q1, q2, q3)
	}
}
