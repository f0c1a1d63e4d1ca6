// Package rockd is the analysis daemon: a long-running HTTP/JSON service
// wrapping the Rock pipeline for fleet-scale traffic, where the dominant
// workload is the SAME binaries submitted over and over. Its job is to
// make the Nth identical or near-identical submission cost ~zero:
//
//   - Submissions are keyed by image.ContentDigest. A singleflight layer
//     collapses concurrent identical submissions into one in-flight
//     analysis whose result fans out to every waiter — a million users
//     uploading the same binary cost one analysis.
//   - A bounded in-memory hot cache (LRU by bytes) holds finished results
//     as pre-marshaled JSON: a hot hit performs no snapshot decode and no
//     disk I/O. It layers above the on-disk content-addressed snapshot
//     store, so an eviction degrades to a snapshot decode (the warm
//     lane), and a cold start with a populated cache directory serves
//     warm from the first request.
//   - A patched re-upload of a known binary misses both layers but rides
//     the incremental version-diff lane automatically: the snapshot
//     store's v3 NameHash index finds the nearest prior version and
//     unchanged functions/models/families are reused (see
//     core.Config.IncrementalFrom auto-discovery).
//   - Two admission classes — interactive and batch — with separate
//     concurrency slots and queue depths keep bulk jobs from starving
//     interactive latency; over-depth submissions are rejected (429)
//     instead of queueing unboundedly. Fully-warm submissions bypass
//     admission entirely, as core.Shared's admission rule lets them.
//   - Client disconnects propagate: each waiter holds a reference on its
//     flight, and when the last waiter disconnects the flight's context
//     is canceled, draining the analysis through the pool's cancellation
//     paths. Async submissions hold a server-side reference and always
//     complete.
//   - SIGTERM drains gracefully: in-flight work finishes (bounded by
//     DrainTimeout), new submissions get 503.
//
// All analyses run on one rock.Engine — a single shared worker pool — so
// concurrent requests compete for a fixed parallelism budget. /metrics exposes the server counters, per-class
// queue state and latency quantiles, and a server-level per-stage
// observability rollup fed by each request's obs bus (merged mid-flight
// for live analyses — the bus is documented concurrent-read-safe).
package rockd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/snapshot"
	"repro/rock"
)

// Config parameterizes the daemon. The zero value serves with all-CPU
// workers, a 256 MiB hot cache, and no snapshot store (set CacheDir to
// enable the warm and incremental lanes).
type Config struct {
	// Analysis is the base analysis configuration every submission runs
	// under (metric, depth, window, CacheDir, Workers...). The Observer
	// field is ignored — the daemon observes per request.
	Analysis rock.Options
	// HotCacheBytes bounds the in-memory result cache (LRU by payload
	// bytes). 0 selects 256 MiB.
	HotCacheBytes int64
	// InteractiveSlots bounds concurrently running interactive analyses.
	// 0 selects the worker count.
	InteractiveSlots int
	// InteractiveQueue bounds queued interactive submissions (waiting for
	// a slot); beyond it submissions are rejected with 429. 0 selects 256.
	InteractiveQueue int
	// BatchSlots bounds concurrently running batch analyses. 0 selects
	// half the workers (at least 1) so batch work can never occupy every
	// slot.
	BatchSlots int
	// BatchQueue bounds queued batch submissions. 0 selects 4096.
	BatchQueue int
	// MaxBodyBytes bounds a submitted image. 0 selects 64 MiB.
	MaxBodyBytes int64
	// DrainTimeout bounds the graceful drain: how long Serve waits for
	// in-flight work after its context is canceled before hard-canceling.
	// 0 selects 30s.
	DrainTimeout time.Duration
}

// Server is the daemon. Create with New, serve with Serve (or mount
// Handler on an existing server).
type Server struct {
	cfg    Config
	eng    *rock.Engine
	cache  *hotCache
	queues map[Class]*classQueue
	epoch  time.Time

	// base is the lifecycle context every flight derives from; canceling
	// it (hard drain) aborts all in-flight analyses.
	base       context.Context
	cancelBase context.CancelFunc
	draining   atomic.Bool

	mu      sync.Mutex
	flights map[[32]byte]*flight
	// failed remembers recent async flight errors for the poll endpoint,
	// bounded (see rememberFailure).
	failed map[[32]byte]string

	// flightWG tracks runFlight goroutines for drain.
	flightWG sync.WaitGroup

	// Counters (see Metrics for semantics).
	submissions, hotHits, coalesced          atomic.Int64
	analysesCold, analysesWarm, analysesIncr atomic.Int64
	analysisErrors, canceledFlights          atomic.Int64
	analysisPanics                           atomic.Int64

	latency map[Class]*latencyRing

	// obsMu guards the finished-request observability rollup and the set
	// of live buses merged into /metrics scrapes.
	obsMu  sync.Mutex
	obsAgg *obs.Report
	live   map[*obs.Bus]struct{}
}

// New validates cfg and builds a server. The analysis options are
// resolved once; an invalid metric or evidence spelling fails here, not
// per request.
func New(cfg Config) (*Server, error) {
	eng, err := rock.NewEngine(cfg.Analysis)
	if err != nil {
		return nil, err
	}
	workers := eng.Workers()
	if cfg.HotCacheBytes <= 0 {
		cfg.HotCacheBytes = 256 << 20
	}
	if cfg.InteractiveSlots <= 0 {
		cfg.InteractiveSlots = workers
	}
	if cfg.InteractiveQueue <= 0 {
		cfg.InteractiveQueue = 256
	}
	if cfg.BatchSlots <= 0 {
		cfg.BatchSlots = max(1, workers/2)
	}
	if cfg.BatchQueue <= 0 {
		cfg.BatchQueue = 4096
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	base, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:   cfg,
		eng:   eng,
		cache: newHotCache(cfg.HotCacheBytes),
		queues: map[Class]*classQueue{
			ClassInteractive: newClassQueue(ClassInteractive, cfg.InteractiveSlots, cfg.InteractiveQueue),
			ClassBatch:       newClassQueue(ClassBatch, cfg.BatchSlots, cfg.BatchQueue),
		},
		epoch:      time.Now(),
		base:       base,
		cancelBase: cancel,
		flights:    map[[32]byte]*flight{},
		failed:     map[[32]byte]string{},
		latency: map[Class]*latencyRing{
			ClassInteractive: {},
			ClassBatch:       {},
		},
		obsAgg: &obs.Report{},
		live:   map[*obs.Bus]struct{}{},
	}, nil
}

// flight is one in-flight analysis all identical submissions share.
type flight struct {
	digest [32]byte
	done   chan struct{}
	cancel context.CancelFunc

	// refs counts waiters (guarded by Server.mu). An async submission
	// holds one server-side ref that is never released, so async flights
	// always run to completion; when a sync flight's refs hit zero the
	// flight is abandoned: removed from the table and canceled.
	refs      int
	abandoned bool

	// Result, readable after done closes.
	entry *hotEntry
	err   error
	// queueWaitNS is how long the flight waited for admission.
	queueWaitNS int64
	// coalescedInto marks responses for waiters that joined rather than
	// created the flight (set per waiter, not here).
}

// result of a submission, pre-marshaled.
type submitOutcome struct {
	entry       *hotEntry
	source      string // "hot" or the flight's source
	coalesced   bool
	queueWaitNS int64
}

// errDraining rejects submissions during graceful drain (HTTP 503).
var errDraining = errors.New("rockd: draining")

// do runs one submission to completion: hot-cache lookup, then
// singleflight join-or-create, then wait. img must be loaded (its digest
// is the dedupe key). ctx is the CLIENT's context: canceling it abandons
// only this waiter's interest.
func (s *Server) do(ctx context.Context, img *image.Image, class Class) (*submitOutcome, error) {
	digest := contentDigest(img)
	s.submissions.Add(1)
	if e := s.cache.get(digest); e != nil {
		s.hotHits.Add(1)
		return &submitOutcome{entry: e, source: "hot"}, nil
	}
	f, created, err := s.joinFlight(digest, img, class)
	if err != nil {
		return nil, err
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		s.leaveFlight(f)
		return nil, ctx.Err()
	}
	if f.err != nil {
		return nil, f.err
	}
	return &submitOutcome{
		entry:       f.entry,
		source:      f.entry.source,
		coalesced:   !created,
		queueWaitNS: f.queueWaitNS,
	}, nil
}

// submitAsync starts (or joins) a flight without waiting. The server
// itself holds the waiter reference, so the flight is never canceled by
// client disconnects. Returns the job status: "hot" (already cached),
// "inflight" (joined an existing flight), or "accepted" (new flight).
func (s *Server) submitAsync(img *image.Image, class Class) (digest [32]byte, status string, err error) {
	digest = contentDigest(img)
	s.submissions.Add(1)
	if e := s.cache.get(digest); e != nil {
		s.hotHits.Add(1)
		return digest, "hot", nil
	}
	_, created, err := s.joinFlight(digest, img, class)
	if err != nil {
		return digest, "", err
	}
	if created {
		return digest, "accepted", nil
	}
	return digest, "inflight", nil
}

// joinFlight implements the singleflight layer: attach to the digest's
// in-flight analysis or start one. The caller owns one reference on the
// returned flight (release via leaveFlight or flight completion).
func (s *Server) joinFlight(digest [32]byte, img *image.Image, class Class) (f *flight, created bool, err error) {
	if s.draining.Load() {
		return nil, false, errDraining
	}
	s.mu.Lock()
	if f, ok := s.flights[digest]; ok {
		f.refs++
		s.mu.Unlock()
		s.coalesced.Add(1)
		return f, false, nil
	}
	fctx, cancel := context.WithCancel(s.base)
	f = &flight{digest: digest, done: make(chan struct{}), cancel: cancel, refs: 1}
	s.flights[digest] = f
	s.flightWG.Add(1)
	s.mu.Unlock()
	go s.runFlight(fctx, f, img, class)
	return f, true, nil
}

// leaveFlight drops one waiter reference. When the last sync waiter
// disconnects the flight is abandoned: unpublished (so a later identical
// submission starts fresh) and its context canceled, which drains the
// analysis through the pool's cancellation paths.
func (s *Server) leaveFlight(f *flight) {
	s.mu.Lock()
	f.refs--
	abandon := f.refs == 0 && !f.abandoned
	if abandon {
		f.abandoned = true
		if s.flights[f.digest] == f {
			delete(s.flights, f.digest)
		}
	}
	s.mu.Unlock()
	if abandon {
		s.canceledFlights.Add(1)
		f.cancel()
	}
}

// runFlight executes one analysis and fans its result out: the hot cache
// is populated BEFORE the flight is unpublished, so there is no window in
// which a new identical submission restarts the analysis.
func (s *Server) runFlight(ctx context.Context, f *flight, img *image.Image, class Class) {
	defer s.flightWG.Done()
	entry, waitNS, err := s.execute(ctx, f.digest, img, class)
	if panicked, ok := err.(*pool.Panic); ok {
		s.analysisPanics.Add(1)
		log.Printf("rockd: analysis of %x panicked: %v\n%s", f.digest, panicked.Value, panicked.Stack)
	}
	if err == nil {
		s.cache.put(entry)
	} else {
		s.analysisErrors.Add(1)
		s.rememberFailure(f.digest, err)
	}
	s.mu.Lock()
	if s.flights[f.digest] == f {
		delete(s.flights, f.digest)
	}
	if err == nil {
		// A success supersedes any earlier failure: once the hot entry is
		// evicted the poll must say "resubmit" (404), not replay a stale
		// error.
		delete(s.failed, f.digest)
	}
	f.entry, f.err, f.queueWaitNS = entry, err, waitNS
	s.mu.Unlock()
	close(f.done)
	f.cancel()
}

// execute runs the analysis body of a flight: admission (bypassed for
// fully-warm images — a decode is not an analysis), then the engine,
// observed on a per-request bus that feeds the /metrics rollup. digest is
// the flight's key (contentDigest of img), which the hot entry reuses.
//
// A panic in the analysis is contained here, at the flight boundary: it
// becomes the flight's error, a *pool.Panic (pool.ForEach carries panics
// from its helper goroutines back to this one).
func (s *Server) execute(ctx context.Context, digest [32]byte, img *image.Image, class Class) (entry *hotEntry, waitNS int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := r.(*pool.Panic)
			if !ok {
				p = &pool.Panic{Value: r, Stack: debug.Stack()}
			}
			entry, err = nil, p
		}
	}()
	if !s.eng.ProbeWarm(img) {
		release, wait, err := s.queues[class].admit(ctx)
		if err != nil {
			return nil, wait.Nanoseconds(), err
		}
		defer release()
		waitNS = wait.Nanoseconds()
	}

	bus := rock.NewObserver()
	s.obsMu.Lock()
	s.live[bus] = struct{}{}
	s.obsMu.Unlock()
	defer func() {
		s.obsMu.Lock()
		delete(s.live, bus)
		s.obsAgg.Merge(bus.Report())
		s.obsMu.Unlock()
	}()
	t0 := time.Now()
	rep, err := s.eng.AnalyzeImage(ctx, img, bus)
	analysisNS := time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, waitNS, err
	}

	source := "cold"
	switch {
	case rep.SnapshotReuse >= snapshot.LevelHierarchy:
		source = "warm"
		s.analysesWarm.Add(1)
	case rep.Incremental:
		source = "incremental"
		s.analysesIncr.Add(1)
	default:
		s.analysesCold.Add(1)
	}

	repJSON, err := json.Marshal(rep)
	if err != nil {
		return nil, waitNS, fmt.Errorf("rockd: marshaling report: %w", err)
	}
	statsJSON, err := json.Marshal(rep.Stats)
	if err != nil {
		return nil, waitNS, fmt.Errorf("rockd: marshaling stats: %w", err)
	}
	return &hotEntry{
		digest:     digest,
		report:     repJSON,
		stats:      statsJSON,
		source:     source,
		analysisNS: analysisNS,
	}, waitNS, nil
}

// rememberFailure records an async flight error for the poll endpoint.
// The map is bounded crudely: at 1024 entries it is reset wholesale — a
// forgotten failure just means the poller resubmits.
func (s *Server) rememberFailure(digest [32]byte, err error) {
	s.mu.Lock()
	if len(s.failed) >= 1024 {
		s.failed = map[[32]byte]string{}
	}
	s.failed[digest] = err.Error()
	s.mu.Unlock()
}

// contentDigest keys a submission: metadata never affects the digest
// (ContentDigest already excludes it), so stripped and decorated uploads
// of the same binary dedupe together.
func contentDigest(img *image.Image) [32]byte {
	return img.ContentDigest()
}

// Metrics snapshots the server state.
func (s *Server) Metrics() *Metrics {
	m := &Metrics{
		UptimeNS:            time.Since(s.epoch).Nanoseconds(),
		Draining:            s.draining.Load(),
		Submissions:         s.submissions.Load(),
		HotHits:             s.hotHits.Load(),
		Coalesced:           s.coalesced.Load(),
		AnalysesCold:        s.analysesCold.Load(),
		AnalysesWarm:        s.analysesWarm.Load(),
		AnalysesIncremental: s.analysesIncr.Load(),
		AnalysisErrors:      s.analysisErrors.Load(),
		AnalysisPanics:      s.analysisPanics.Load(),
		CanceledFlights:     s.canceledFlights.Load(),
		Classes:             map[string]*ClassMetrics{},
	}
	s.mu.Lock()
	m.InFlight = int64(len(s.flights))
	s.mu.Unlock()
	m.Cache.Entries, m.Cache.Bytes, m.Cache.Capacity, m.Cache.Hits, m.Cache.Misses, m.Cache.Evictions = s.cache.stats()
	for class, q := range s.queues {
		m.Classes[string(class)] = &ClassMetrics{
			Slots:       cap(q.slots),
			QueueDepth:  int(q.depth),
			Queued:      q.queued.Load(),
			Running:     q.running.Load(),
			Admitted:    q.admitted.Load(),
			Rejected:    q.rejected.Load(),
			QueueWaitNS: q.waitNS.Load(),
			Latency:     s.latency[class].summary(),
		}
	}
	// Server-level stage rollup: finished requests plus a mid-flight
	// snapshot of every live analysis (obs.Bus is concurrent-read-safe).
	agg := &obs.Report{}
	s.obsMu.Lock()
	agg.Merge(s.obsAgg)
	buses := make([]*obs.Bus, 0, len(s.live))
	for b := range s.live {
		buses = append(buses, b)
	}
	s.obsMu.Unlock()
	for _, b := range buses {
		agg.Merge(b.Report())
	}
	m.Stages = agg
	return m
}

// readHeaderTimeout bounds how long a connection may take to send a
// request header: a client that never finishes one has its connection
// closed instead of holding it and a goroutine forever.
const readHeaderTimeout = 10 * time.Second

// headerTimeout is the ReadHeaderTimeout Serve applies; tests shorten it.
var headerTimeout = readHeaderTimeout

// Serve accepts connections on ln until ctx is canceled, then drains
// gracefully: new submissions are rejected with 503, in-flight HTTP
// requests and async flights get up to DrainTimeout to finish, and
// whatever remains is hard-canceled. Returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: headerTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	// Shutdown stops accepting and waits for in-flight HTTP handlers
	// (whose flights it thereby waits on) up to the drain budget.
	shutdownErr := srv.Shutdown(dctx)
	// Async flights have no HTTP request holding them; wait separately.
	flightsDone := make(chan struct{})
	go func() { s.flightWG.Wait(); close(flightsDone) }()
	select {
	case <-flightsDone:
	case <-dctx.Done():
		s.cancelBase() // hard drain: abort the stragglers
		<-flightsDone
	}
	<-errc // Serve has returned http.ErrServerClosed
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	return nil
}

// Close hard-stops the server (tests): cancels every flight and waits.
func (s *Server) Close() {
	s.draining.Store(true)
	s.cancelBase()
	s.flightWG.Wait()
}

// Workers returns the engine's shared pool capacity.
func (s *Server) Workers() int { return s.eng.Workers() }
