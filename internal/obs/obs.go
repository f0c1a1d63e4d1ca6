// Package obs is the pipeline's observability bus. A *Bus collects, for
// one analysis, the per-stage execution record (wall time, heap-allocation
// deltas, whether the stage ran, was restored from a snapshot, or was
// disabled), a fixed set of domain counters (vtables found, tracelets
// extracted, candidate edges pruned, distance-memo hits, co-optimal
// arborescence counts, ...), and — when a Trace sink is attached —
// chrome-tracing spans covering the stages and every pool fan-out helper,
// so corpus scheduling is visible in Perfetto.
//
// A nil *Bus is a valid, disabled bus: every method no-ops without
// allocating (guarded by TestNilBusZeroAllocs), so the analysis hot path
// pays nothing when observability is off. Counter updates are atomic and
// stage records are mutex-appended, so one bus may be fed by all of an
// analysis's worker goroutines; one Bus observes one analysis.
//
// Allocation deltas are process-wide runtime/metrics samples: with
// concurrent analyses (a corpus batch) they are an attribution estimate,
// not an exact per-stage measurement.
package obs

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one domain counter.
type Counter int

// Domain counters recorded by the pipeline stages.
const (
	// CntVTables counts the binary types (vtables) discovered.
	CntVTables Counter = iota
	// CntTracelets counts the bounded tracelets extracted (TT unions).
	CntTracelets
	// CntRawTracelets counts the unsplit per-object event sequences.
	CntRawTracelets
	// CntAlphabet counts the interned event alphabet symbols.
	CntAlphabet
	// CntFamilies counts the type families partitioned structurally.
	CntFamilies
	// CntCandidateEdges counts the possible-parent edges that survived the
	// structural pruning.
	CntCandidateEdges
	// CntEdgesPruned counts the family-internal ordered pairs the
	// structural analysis ruled out as parent candidates.
	CntEdgesPruned
	// CntModels counts the SLMs trained (and frozen).
	CntModels
	// CntDistPairs counts the pairwise divergences computed.
	CntDistPairs
	// CntDistPairsPruned counts the family-internal ordered pairs the
	// sparse sweep skipped because the structural analysis had already
	// ruled them out as parent candidates (always zero in the dense
	// reporting mode, which reduces every pair).
	CntDistPairsPruned
	// CntDistMemoHits counts distance-sweep word-distribution memo hits.
	CntDistMemoHits
	// CntDistMemoMisses counts word-distribution derivations actually run.
	CntDistMemoMisses
	// CntDistGrams counts the distinct grams (symbol plus its context)
	// interned across the sweep's word sets: the model queries one
	// derivation runs.
	CntDistGrams
	// CntDistPositions counts the word positions those word sets hold:
	// the model queries one derivation would run word by word, so
	// dist_positions / dist_grams is the factoring ratio.
	CntDistPositions
	// CntCoOptimal counts the co-optimal arborescences enumerated across
	// all families (before majority voting).
	CntCoOptimal
	// CntArbsKept counts the arborescences surviving majority voting.
	CntArbsKept
	// CntEnumStates counts the search states the co-optimal enumeration
	// visited across all families (at most its budget per family).
	CntEnumStates
	// CntMultiParents counts the types assigned multiple parents (§5.3).
	CntMultiParents
	// CntPoolHelpers counts the fan-out helper goroutines the pool spawned
	// for this analysis (a measure of the parallelism actually won).
	CntPoolHelpers
	// CntFnDigestHits counts functions whose extraction bundle was reused
	// from a prior version's snapshot on the incremental lane.
	CntFnDigestHits
	// CntFnDigestMisses counts functions re-executed because their content
	// digest changed (or the prior snapshot had no bundle for them).
	CntFnDigestMisses
	// CntTypesRetrained counts SLMs retrained on the incremental lane
	// because the type's training input changed.
	CntTypesRetrained
	// CntFamiliesResolved counts families re-solved on the incremental
	// lane (the rest restored verbatim from the prior snapshot).
	CntFamiliesResolved
	// CntEvidenceProviders counts the evidence providers constructed for
	// the run (1 for the default SLM-only configuration).
	CntEvidenceProviders
	// CntEvidenceEdges counts candidate-edge scores produced across all
	// evidence providers (provider count × admissible pairs).
	CntEvidenceEdges

	numCounters
)

// counterNames indexes the JSON/report spelling of each counter.
var counterNames = [numCounters]string{
	"vtables", "tracelets", "raw_tracelets", "alphabet", "families",
	"candidate_edges", "edges_pruned", "models", "dist_pairs",
	"dist_pairs_pruned", "dist_memo_hits", "dist_memo_misses", "dist_grams",
	"dist_positions", "co_optimal", "arbs_kept", "enum_states",
	"multi_parents", "pool_helpers",
	"fn_digest_hit", "fn_digest_miss", "types_retrained", "families_resolved",
	"evidence_providers", "evidence_edges_scored",
}

// String returns the counter's report name.
func (c Counter) String() string {
	if c >= 0 && int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("counter%d", int(c))
}

// StageStatus records how a stage was satisfied.
type StageStatus uint8

// Stage statuses.
const (
	// StageRan: the stage executed.
	StageRan StageStatus = iota
	// StageCached: the stage's outputs were restored from a snapshot.
	StageCached
	// StageOff: the stage was disabled by configuration (e.g. the
	// behavioral stages under StructuralOnly).
	StageOff
)

// String renders the status for the -stats table.
func (s StageStatus) String() string {
	switch s {
	case StageCached:
		return "cached"
	case StageOff:
		return "off"
	default:
		return "ran"
	}
}

// StageStats is one stage's execution record.
type StageStats struct {
	// Name is the stage name (one of core's stages, or a cache step).
	Name string `json:"name"`
	// Section is the snapshot-section tag the stage persists under.
	Section string `json:"section"`
	// Status reports ran / cached / off.
	Status StageStatus `json:"status"`
	// Wall is the stage's wall-clock time (zero unless it ran).
	Wall time.Duration `json:"wall_ns"`
	// AllocBytes and Allocs are the process-wide heap-allocation deltas
	// observed across the stage (attribution estimates under concurrency).
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
	// Failed reports the stage returned an error.
	Failed bool `json:"failed,omitempty"`
	// Count is the number of per-analysis records folded into this one.
	// Zero on a single analysis's report; Merge sets it on aggregates
	// (treating a zero source record as one occurrence).
	Count int64 `json:"count,omitempty"`
}

// Report is the machine-readable outcome of one observed analysis.
type Report struct {
	// Total is the wall-clock span from bus creation to the Report call.
	Total time.Duration `json:"total_ns"`
	// SnapshotReuse is the snapshot reuse level of the run
	// (snapshot.LevelNone .. LevelHierarchy).
	SnapshotReuse int `json:"snapshot_reuse"`
	// Stages lists the per-stage records in execution order.
	Stages []StageStats `json:"stages"`
	// Counters holds the non-zero domain counters by name.
	Counters map[string]int64 `json:"counters"`
}

// Bus collects one analysis's observability record. The zero value is
// ready to use; NewBus stamps the epoch for Total. A nil *Bus is valid
// and free.
//
// A Bus is safe to READ while the analysis it observes is still in
// flight: counters are atomics, the stage list is mutex-guarded, and
// Report snapshots both under the lock — so a metrics endpoint may call
// Report concurrently with the recording goroutines (guarded by
// TestBusConcurrentReadWhileInFlight under -race). The mid-flight Report
// is a consistent prefix: stages that finished before the call, counter
// values at the instant of the call. Trace and Lane are configuration,
// set before the first recording call and never mutated afterwards.
type Bus struct {
	// Trace, when non-nil, receives chrome-tracing spans for the stages
	// and pool fan-out helpers. Many buses may share one Trace (the corpus
	// case); each should then use a distinct Lane.
	Trace *Trace
	// Lane is the trace lane ("thread") stage spans are drawn on.
	Lane int

	epoch    time.Time
	reuse    atomic.Int64
	counters [numCounters]atomic.Int64

	mu     sync.Mutex
	stages []StageStats
}

// NewBus returns an empty enabled bus.
func NewBus() *Bus {
	return &Bus{epoch: time.Now()}
}

// Add increments a domain counter. Safe from any goroutine; nil-safe.
func (b *Bus) Add(c Counter, n int64) {
	if b == nil || c < 0 || c >= numCounters {
		return
	}
	b.counters[c].Add(n)
}

// SetSnapshotReuse records the run's snapshot reuse level.
func (b *Bus) SetSnapshotReuse(level int) {
	if b == nil {
		return
	}
	b.reuse.Store(int64(level))
}

// AllocSample reads the cumulative heap allocation gauges — the same
// process-wide estimate StageStart/End bracket a stage with. Callers
// that account sub-stage work (e.g. per-provider attribution inside the
// hierarchy fan-out) sample around their region and feed the deltas to
// StageRecord.
func AllocSample() (bytes, objects uint64) {
	return allocSample()
}

// allocSample reads the cumulative heap allocation gauges.
func allocSample() (bytes, objects uint64) {
	s := [2]metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// StageHandle is an in-flight stage measurement returned by StageStart.
// The zero value (from a nil bus) is valid and End on it is free.
type StageHandle struct {
	b             *Bus
	name, section string
	start         time.Time
	bytes0, objs0 uint64
	span          SpanHandle
}

// StageStart opens a stage record: it samples the clock and the heap
// gauges and, with a Trace attached, opens a span on the bus's lane.
func (b *Bus) StageStart(name, section string) StageHandle {
	if b == nil {
		return StageHandle{}
	}
	h := StageHandle{b: b, name: name, section: section}
	h.bytes0, h.objs0 = allocSample()
	h.span = b.Span(name)
	h.start = time.Now()
	return h
}

// End closes the stage record opened by StageStart.
func (h StageHandle) End(err error) {
	if h.b == nil {
		return
	}
	wall := time.Since(h.start)
	h.span.End()
	bytes1, objs1 := allocSample()
	st := StageStats{
		Name:    h.name,
		Section: h.section,
		Status:  StageRan,
		Wall:    wall,
		Failed:  err != nil,
	}
	if bytes1 > h.bytes0 {
		st.AllocBytes = bytes1 - h.bytes0
	}
	if objs1 > h.objs0 {
		st.Allocs = objs1 - h.objs0
	}
	h.b.mu.Lock()
	h.b.stages = append(h.b.stages, st)
	h.b.mu.Unlock()
}

// StageRecord appends a caller-built stage record verbatim. It is the
// escape hatch for sub-stage attribution that StageStart/End cannot
// bracket — e.g. one aggregate row per evidence provider, accumulated
// across the concurrent per-family hierarchy fan-out — where the caller
// owns the wall/alloc accounting (and may pre-set Count, which Merge
// then treats as an aggregate of that many occurrences). Nil-safe.
func (b *Bus) StageRecord(st StageStats) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.stages = append(b.stages, st)
	b.mu.Unlock()
}

// StageSkipped records a stage that did not execute, attributing why:
// StageCached (restored from a snapshot) or StageOff (disabled).
func (b *Bus) StageSkipped(name, section string, status StageStatus) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.stages = append(b.stages, StageStats{Name: name, Section: section, Status: status})
	b.mu.Unlock()
}

// Span opens a trace span on the bus's lane; a no-op handle without a
// Trace. Spans on one lane must strictly nest (stages are sequential).
func (b *Bus) Span(name string) SpanHandle {
	if b == nil || b.Trace == nil {
		return SpanHandle{}
	}
	return b.Trace.begin(b.Lane, name, "stage")
}

// HelperSpan opens a span for a transient fan-out helper on its own
// acquired lane; End releases the lane. A no-op without a Trace.
func (b *Bus) HelperSpan(name string) HelperSpan {
	if b == nil || b.Trace == nil {
		return HelperSpan{}
	}
	lane := b.Trace.AcquireLane()
	return HelperSpan{span: b.Trace.begin(lane, name, "fanout"), lane: lane}
}

// Report snapshots the collected record. A nil bus reports nil.
func (b *Bus) Report() *Report {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	stages := append([]StageStats(nil), b.stages...)
	b.mu.Unlock()
	rep := &Report{
		Total:         time.Since(b.epoch),
		SnapshotReuse: int(b.reuse.Load()),
		Stages:        stages,
		Counters:      map[string]int64{},
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := b.counters[c].Load(); v != 0 {
			rep.Counters[c.String()] = v
		}
	}
	return rep
}

// Merge folds another report into r, aggregating many analyses into one
// server-level rollup (the rockd /metrics endpoint merges every finished
// request plus the mid-flight snapshots of the live ones). Stage records
// with the same (Name, Section, Status, Failed) coordinates are combined
// by summing wall time and allocation deltas and counting occurrences in
// Count; distinct coordinates append in first-seen order. Counters sum by
// name, Total accumulates, and SnapshotReuse keeps the maximum observed.
// Merging nil is a no-op. r must not be a live bus's only copy — merge
// into a fresh &Report{} accumulator.
func (r *Report) Merge(o *Report) {
	if o == nil {
		return
	}
	r.Total += o.Total
	if o.SnapshotReuse > r.SnapshotReuse {
		r.SnapshotReuse = o.SnapshotReuse
	}
	type coord struct {
		name, section string
		status        StageStatus
		failed        bool
	}
	idx := make(map[coord]int, len(r.Stages))
	for i, st := range r.Stages {
		idx[coord{st.Name, st.Section, st.Status, st.Failed}] = i
	}
	for _, st := range o.Stages {
		c := coord{st.Name, st.Section, st.Status, st.Failed}
		i, ok := idx[c]
		if !ok {
			if st.Count == 0 {
				st.Count = 1
			}
			idx[c] = len(r.Stages)
			r.Stages = append(r.Stages, st)
			continue
		}
		dst := &r.Stages[i]
		if dst.Count == 0 {
			dst.Count = 1
		}
		n := st.Count
		if n == 0 {
			n = 1
		}
		dst.Count += n
		dst.Wall += st.Wall
		dst.AllocBytes += st.AllocBytes
		dst.Allocs += st.Allocs
	}
	if len(o.Counters) > 0 && r.Counters == nil {
		r.Counters = map[string]int64{}
	}
	for n, v := range o.Counters {
		r.Counters[n] += v
	}
}

// Table renders the report as the -stats text table: one row per stage
// with wall time, allocation deltas, and cache attribution, followed by
// the non-zero domain counters.
func (r *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %-10s %12s %14s %10s\n", "stage", "status", "wall", "alloc", "allocs")
	for _, st := range r.Stages {
		status := st.Status.String()
		if st.Failed {
			status = "FAILED"
		}
		if st.Status != StageRan {
			fmt.Fprintf(&sb, "%-16s %-10s %12s %14s %10s\n", st.Name, status, "-", "-", "-")
			continue
		}
		fmt.Fprintf(&sb, "%-16s %-10s %12s %14s %10d\n",
			st.Name, status, st.Wall.Round(time.Microsecond),
			fmtBytes(st.AllocBytes), st.Allocs)
	}
	fmt.Fprintf(&sb, "total %s, snapshot reuse level %d\n",
		r.Total.Round(time.Microsecond), r.SnapshotReuse)
	if len(r.Counters) > 0 {
		names := make([]string, 0, len(r.Counters))
		for n := range r.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		sb.WriteString("counters:")
		for _, n := range names {
			fmt.Fprintf(&sb, " %s=%d", n, r.Counters[n])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
