package main

import (
	"math"
	"sort"
)

// spec names one reported metric and its unit. The two lists below must
// name exactly the metrics of BENCHMARK.json, in its order
// (TestNamesMatchBenchmarkJSON); the bounds live only there.
type spec struct{ name, unit string }

// endToEnd lists the metrics a user of Rock sees, reported by every
// workload from its untraced measured phase. Times are process CPU time
// scaled to the reference speed (reference.go): a ref-ms is a CPU
// millisecond on a machine as fast as the one the benchmark was built on.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"cost_p50", "ref-ms"},
	{"cost_p90", "ref-ms"},
	{"throughput", "analyses/ref-s"},
	{"peak_rss_mb", "MiB"},
	{"edge_f1", "fraction"},
}

// perLayer lists the per-layer metrics, reported by every workload with
// -trace 1. Layer names are the module names. A metric a workload has no
// use for (rockd counters on a corpus workload) reads 0.
var perLayer = []spec{
	{"image.load_ms", "ms"},
	{"image.digest_ms", "ms"},
	{"disasm.self_ms", "ms"},
	{"disasm.functions", "count"},
	{"vtable.self_ms", "ms"},
	{"objtrace.self_ms", "ms"},
	{"objtrace.tracelets", "count"},
	{"objtrace.alloc_mb", "MiB"},
	{"structural.self_ms", "ms"},
	{"structural.admit_ratio", "fraction"},
	{"core.alphabet_ms", "ms"},
	{"slm.train_ms", "ms"},
	{"slm.models", "count"},
	{"slm.alloc_mb", "MiB"},
	{"slmkl.self_ms", "ms"},
	{"slmkl.pairs", "count"},
	{"slmkl.alloc_mb", "MiB"},
	{"core.hierarchy_ms", "ms"},
	{"arborescence.co_optimal", "count"},
	{"snapshot.decode_ms", "ms"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.write_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"core.residual_ms", "ms"},
	{"core.fn_reuse_ratio", "fraction"},
	{"core.families_resolved", "count"},
	{"trace.coverage", "fraction"},
	{"corpus.wait_ms", "ms"},
	{"corpus.warm_ratio", "fraction"},
	{"rockd.hot_ratio", "fraction"},
	{"rockd.coalesced", "count"},
	{"rockd.cold", "count"},
	{"rockd.queue_wait_ms", "ms"},
	{"rockd.batch_queue_wait_ms", "ms"},
	{"rockd.latency_p99_ms", "ms"},
	{"rockd.batch_latency_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the metrics of specs from vals, reading 0 for a metric
// the workload did not produce.
func pick(specs []spec, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: vals[s.name], Unit: s.unit}
	}
	return out
}

// percentile returns the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(xs, n=4), so
// spreads read the same here as in any script that checks the runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
