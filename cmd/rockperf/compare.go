package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// bounded is one end-to-end metric as BENCHMARK.json declares it.
type bounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the comparison reads: the
// bounds live there and nowhere else.
type benchmarkFile struct {
	EndToEnd []bounded `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmark(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// series gathers one -out file's values per workload and metric, in run
// order, with the failed and attempted checks per workload.
type series struct {
	vals              map[string]map[string][]float64
	failed, attempted map[string]int
}

func loadSeries(path string) (*series, error) {
	f, err := readRuns(path)
	if err != nil {
		return nil, err
	}
	s := &series{vals: map[string]map[string][]float64{}, failed: map[string]int{}, attempted: map[string]int{}}
	for _, run := range f.Runs {
		for _, r := range run.Workloads {
			if s.vals[r.Workload] == nil {
				s.vals[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				s.vals[r.Workload][name] = append(s.vals[r.Workload][name], m.Value)
			}
			s.failed[r.Workload] += r.Failed
			s.attempted[r.Workload] += r.Attempted
		}
	}
	return s, nil
}

// verdict judges one (workload, metric) pairing of two run sets.
// "worse" means NEW's median is worse than BASE's by more than the
// bound; "unresolved" means the run-to-run spread of either side is
// wider than the bound, unless every NEW run beats every BASE run;
// "better" needs NEW to win nine pairs in ten (runs paired in order)
// and the medians to differ by more than BASE's own quartile distance.
func verdict(base, new []float64, m bounded) (string, float64) {
	q1b, mb, q3b := quartiles(base)
	q1n, mn, q3n := quartiles(new)
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	rel := func(d, ref float64) float64 {
		if ref == 0 {
			return d
		}
		return d / math.Abs(ref)
	}
	change := sign * rel(mn-mb, mb)
	spread := max(rel(q3b-q1b, mb), rel(q3n-q1n, mn))
	better := func(x, y float64) bool { return sign*(x-y) < 0 }
	allBetter := true
	for _, n := range new {
		for _, b := range base {
			allBetter = allBetter && better(n, b)
		}
	}
	wins, pairs := 0, min(len(base), len(new))
	for i := 0; i < pairs; i++ {
		if better(new[i], base[i]) {
			wins++
		}
	}
	switch {
	case spread > m.Bound && !allBetter:
		return "unresolved", change
	case change > m.Bound:
		return "worse", change
	case pairs > 0 && 10*wins >= 9*pairs && math.Abs(mn-mb) > q3b-q1b && change < 0:
		return "better", change
	}
	return "same", change
}

// runCompare prints median and quartiles of both run sets per workload
// and end-to-end metric with a verdict, and returns exit code 1 on any
// "worse" pairing, a higher failed share of checks, or a workload or
// metric that BASE has and NEW lacks.
func runCompare(w io.Writer, root, basePath, newPath string) (int, error) {
	bm, err := readBenchmark(root)
	if err != nil {
		return 0, err
	}
	base, err := loadSeries(basePath)
	if err != nil {
		return 0, err
	}
	next, err := loadSeries(newPath)
	if err != nil {
		return 0, err
	}
	return compareSeries(w, bm, base, next), nil
}

func compareSeries(w io.Writer, bm *benchmarkFile, base, next *series) int {
	code := 0
	fmt.Fprintf(w, "%-12s %-17s %-10s %30s %30s %8s  %s\n", "workload", "metric", "unit",
		"BASE median [q1, q3]", "NEW median [q1, q3]", "change", "verdict")
	for _, wl := range bm.Workloads {
		bv, nv := base.vals[wl.Name], next.vals[wl.Name]
		if bv == nil {
			continue
		}
		if nv == nil {
			// A workload that crashed or failed set-up leaves no record.
			code = 1
			fmt.Fprintf(w, "%-12s MISSING from NEW\n", wl.Name)
			continue
		}
		for _, m := range bm.EndToEnd {
			b, n := bv[m.Name], nv[m.Name]
			if len(b) == 0 {
				continue
			}
			if len(n) == 0 {
				code = 1
				fmt.Fprintf(w, "%-12s %-17s MISSING from NEW\n", wl.Name, m.Name)
				continue
			}
			v, change := verdict(b, n, m)
			if v == "worse" {
				code = 1
			}
			q1b, mb, q3b := quartiles(b)
			q1n, mn, q3n := quartiles(n)
			fmt.Fprintf(w, "%-12s %-17s %-10s %30s %30s %+7.1f%%  %s (bound %g%%, %d vs %d runs)\n",
				wl.Name, m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", mb, q1b, q3b),
				fmt.Sprintf("%.4g [%.4g, %.4g]", mn, q1n, q3n),
				100*change, v, 100*m.Bound, len(b), len(n))
		}
		fb := float64(base.failed[wl.Name]) / float64(max(base.attempted[wl.Name], 1))
		fn := float64(next.failed[wl.Name]) / float64(max(next.attempted[wl.Name], 1))
		if fn > fb {
			code = 1
			fmt.Fprintf(w, "%-12s failed checks rose: %d/%d -> %d/%d\n", wl.Name,
				base.failed[wl.Name], base.attempted[wl.Name], next.failed[wl.Name], next.attempted[wl.Name])
		}
	}
	return code
}
