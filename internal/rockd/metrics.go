package rockd

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// latencyRing keeps a bounded reservoir of recent response latencies per
// class so /metrics can report live quantiles without unbounded memory.
type latencyRing struct {
	mu      sync.Mutex
	samples [1024]int64
	n       int // filled length
	next    int
	count   int64
	sumNS   int64
	maxNS   int64
}

func (l *latencyRing) observe(d time.Duration) {
	ns := d.Nanoseconds()
	l.mu.Lock()
	l.samples[l.next] = ns
	l.next = (l.next + 1) % len(l.samples)
	if l.n < len(l.samples) {
		l.n++
	}
	l.count++
	l.sumNS += ns
	if ns > l.maxNS {
		l.maxNS = ns
	}
	l.mu.Unlock()
}

// summary computes count/mean/max plus p50/p90/p99 over the retained
// window.
func (l *latencyRing) summary() LatencySummary {
	l.mu.Lock()
	s := LatencySummary{Count: l.count, MaxNS: l.maxNS}
	if l.count > 0 {
		s.MeanNS = l.sumNS / l.count
	}
	window := append([]int64(nil), l.samples[:l.n]...)
	l.mu.Unlock()
	if len(window) == 0 {
		return s
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	q := func(p float64) int64 {
		i := int(p * float64(len(window)-1))
		return window[i]
	}
	s.P50NS, s.P90NS, s.P99NS = q(0.50), q(0.90), q(0.99)
	return s
}

// LatencySummary is one class's response-latency digest (quantiles over
// the most recent window, count/mean/max over the daemon's lifetime).
type LatencySummary struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	MaxNS  int64 `json:"max_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
}

// ClassMetrics is one admission class's live state.
type ClassMetrics struct {
	// Slots and QueueDepth are the configured bounds.
	Slots      int `json:"slots"`
	QueueDepth int `json:"queue_depth"`
	// Queued and Running are instantaneous gauges.
	Queued  int64 `json:"queued"`
	Running int64 `json:"running"`
	// Admitted and Rejected count admission outcomes.
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	// QueueWaitNS is the cumulative time admitted requests spent queued.
	QueueWaitNS int64 `json:"queue_wait_ns"`
	// Latency digests the class's end-to-end response times.
	Latency LatencySummary `json:"latency"`
}

// Metrics is the /metrics JSON document.
type Metrics struct {
	// UptimeNS is time since the server was created.
	UptimeNS int64 `json:"uptime_ns"`
	// Draining reports the server has stopped accepting submissions.
	Draining bool `json:"draining"`

	// Submissions counts every analyze/submit request accepted for
	// processing (hot hits included).
	Submissions int64 `json:"submissions"`
	// HotHits served straight from the in-memory result cache: no
	// admission, no snapshot decode, no disk.
	HotHits int64 `json:"hot_hits"`
	// Coalesced counts submissions that joined an analysis already in
	// flight for the same digest (the singleflight dedupe) instead of
	// starting their own.
	Coalesced int64 `json:"coalesced"`
	// Analyses counts analyses actually executed, by how they ran. The
	// singleflight invariant: Submissions == HotHits + Coalesced +
	// AnalysesCold + AnalysesWarm + AnalysesIncremental + failures.
	AnalysesCold        int64 `json:"analyses_cold"`
	AnalysesWarm        int64 `json:"analyses_warm"`
	AnalysesIncremental int64 `json:"analyses_incremental"`
	// AnalysisErrors counts flights that ended in an error (bad images,
	// canceled clients, queue rejections).
	AnalysisErrors int64 `json:"analysis_errors"`
	// AnalysisPanics counts the flights whose analysis panicked; each is
	// also an analysis error, answered with 500, and its stack is logged.
	AnalysisPanics int64 `json:"analysis_panics"`
	// CanceledFlights counts flights aborted because every waiter
	// disconnected before the result was ready.
	CanceledFlights int64 `json:"canceled_flights"`
	// InFlight is the instantaneous number of live flights.
	InFlight int64 `json:"in_flight"`

	// Cache is the hot result cache's state.
	Cache struct {
		Entries   int   `json:"entries"`
		Bytes     int64 `json:"bytes"`
		Capacity  int64 `json:"capacity"`
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`

	// Classes holds the per-admission-class state.
	Classes map[string]*ClassMetrics `json:"classes"`

	// Stages is the server-level observability rollup: every finished
	// request's per-stage record merged (obs.Report.Merge), plus a
	// mid-flight snapshot of every live analysis — so a scrape during a
	// long analysis sees its completed stages already.
	Stages *obs.Report `json:"stages"`
}
