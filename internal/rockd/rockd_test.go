package rockd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/image"
	"repro/internal/synth"
	"repro/rock"
)

// motivatingBinary marshals the paper's motivating example.
func motivatingBinary(t *testing.T) []byte {
	t.Helper()
	img, err := compiler.Compile(bench.Motivating(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// synthBinary marshals a distinct mid-sized random program per seed.
func synthBinary(t *testing.T, seed int64) []byte {
	t.Helper()
	prog, _ := synth.Generate(synth.DefaultParams(seed))
	img, err := compiler.Compile(prog, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Analysis.Workers == 0 {
		cfg.Analysis.Workers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postAnalyze(t *testing.T, ts *httptest.Server, body []byte, query string) (*Response, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/analyze"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out Response
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad response %s: %v", raw, err)
	}
	return &out, resp.StatusCode
}

// TestSingleflightCollapsesConcurrentSubmissions is the dedupe contract:
// N concurrent identical submissions cost exactly ONE analysis; every
// caller gets the same report.
func TestSingleflightCollapsesConcurrentSubmissions(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bin := motivatingBinary(t)

	const n = 24
	var wg sync.WaitGroup
	reports := make([]json.RawMessage, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, code := postAnalyze(t, ts, bin, "")
			codes[i] = code
			if out != nil {
				reports[i] = out.Report
			}
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if !bytes.Equal(reports[i], reports[0]) {
			t.Fatalf("request %d returned a different report", i)
		}
	}
	m := s.Metrics()
	analyses := m.AnalysesCold + m.AnalysesWarm + m.AnalysesIncremental
	if analyses != 1 {
		t.Fatalf("%d analyses for %d identical submissions, want exactly 1 (coalesced=%d hot=%d)",
			analyses, n, m.Coalesced, m.HotHits)
	}
	if m.Submissions != n {
		t.Fatalf("submissions = %d, want %d", m.Submissions, n)
	}
	if m.Coalesced+m.HotHits != n-1 {
		t.Fatalf("coalesced(%d)+hot(%d) should cover the other %d submissions",
			m.Coalesced, m.HotHits, n-1)
	}
}

// TestHotCacheHit: the second identical submission is served from memory
// — source "hot", no second analysis — and byte-identical to the first.
func TestHotCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bin := motivatingBinary(t)

	first, _ := postAnalyze(t, ts, bin, "")
	if first.Source == "hot" {
		t.Fatalf("first submission cannot be hot")
	}
	second, _ := postAnalyze(t, ts, bin, "")
	if second.Source != "hot" {
		t.Fatalf("second submission source = %q, want hot", second.Source)
	}
	if !bytes.Equal(first.Report, second.Report) {
		t.Fatal("hot hit returned a different report")
	}
	m := s.Metrics()
	if m.HotHits != 1 {
		t.Fatalf("hot hits = %d, want 1", m.HotHits)
	}
	if total := m.AnalysesCold + m.AnalysesWarm + m.AnalysesIncremental; total != 1 {
		t.Fatalf("analyses = %d, want 1", total)
	}
}

// TestHotEntryKeyedBySubmissionDigest: a cold flight files its hot entry
// under the digest its submission was keyed by (the flight carries it into
// execute, which does not digest the image again), so a repeat submission
// of the same bytes is served hot.
func TestHotEntryKeyedBySubmissionDigest(t *testing.T) {
	s := newTestServer(t, Config{})
	img, err := image.Load(motivatingBinary(t))
	if err != nil {
		t.Fatal(err)
	}
	digest, status, err := s.submitAsync(img, ClassBatch)
	if err != nil || status != "accepted" {
		t.Fatalf("submit: status %q, err %v", status, err)
	}
	if digest != img.ContentDigest() {
		t.Fatal("submission not keyed by the image's content digest")
	}
	s.flightWG.Wait()
	e := s.cache.get(digest)
	if e == nil {
		t.Fatal("cold flight left no hot entry under the submission's digest")
	}
	if e.digest != digest || e.source != "cold" {
		t.Fatalf("hot entry: digest match %v, source %q; want the submission's digest, cold", e.digest == digest, e.source)
	}
	out, err := s.do(context.Background(), img, ClassInteractive)
	if err != nil {
		t.Fatal(err)
	}
	if out.source != "hot" || out.entry != e {
		t.Fatalf("repeat submission: source %q, same entry %v; want hot", out.source, out.entry == e)
	}
}

// TestHotHitBypassesFullAdmission is the serving path's isolation claim
// without a timing threshold: with every slot of both class queues held
// and each queue at depth, a first-seen image is rejected (429) while a
// repeat of an already-analyzed image is still answered from the hot
// cache, because hot hits never reach admission.
func TestHotHitBypassesFullAdmission(t *testing.T) {
	s := newTestServer(t, Config{InteractiveQueue: 1, BatchQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bin := motivatingBinary(t)
	if out, code := postAnalyze(t, ts, bin, ""); code != http.StatusOK || out.Source == "hot" {
		t.Fatalf("priming analysis: status %d", code)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var waiters sync.WaitGroup
	defer func() { cancel(); waiters.Wait() }()
	for _, q := range s.queues {
		for i := 0; i < cap(q.slots); i++ {
			release, _, err := q.admit(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer release()
		}
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			// Queues behind the held slots until canceled.
			if release, _, err := q.admit(ctx); err == nil {
				release()
			}
		}()
		for i := 0; q.queued.Load() == 0 && i < 10000; i++ {
			time.Sleep(time.Millisecond)
		}
	}
	for _, query := range []string{"", "?class=batch"} {
		if _, code := postAnalyze(t, ts, synthBinary(t, 7), query); code != http.StatusTooManyRequests {
			t.Fatalf("%q first-seen image with admission full: status %d, want 429", query, code)
		}
		out, code := postAnalyze(t, ts, bin, query)
		if code != http.StatusOK || out.Source != "hot" {
			t.Fatalf("%q hot image with admission full: status %d, want 200 from the hot cache", query, code)
		}
	}
}

// TestHotResponseMatchesDirectAnalysis: the daemon's report is the
// library's report — same JSON for the same binary and options.
func TestHotResponseMatchesDirectAnalysis(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bin := motivatingBinary(t)

	out, _ := postAnalyze(t, ts, bin, "")
	direct, err := rock.Analyze(bin, rock.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Normalize the daemon-only fields before comparing: the daemon
	// always observes (its Stats feed /metrics), the direct run did not.
	var got rock.Report
	if err := json.Unmarshal(out.Report, &got); err != nil {
		t.Fatal(err)
	}
	got.Stats = nil
	direct.Stats = nil
	gotJSON, _ := json.Marshal(&got)
	directJSON, _ := json.Marshal(direct)
	if !bytes.Equal(gotJSON, directJSON) {
		t.Fatalf("daemon report differs from direct analysis:\n%s\n---\n%s", gotJSON, directJSON)
	}
}

// TestHotCacheEviction: a byte-bounded cache evicts LRU entries instead
// of growing; evicted digests re-serve without error.
func TestHotCacheEviction(t *testing.T) {
	c := newHotCache(3 * 1024)
	mk := func(b byte, n int) *hotEntry {
		var d [32]byte
		d[0] = b
		return &hotEntry{digest: d, report: make(json.RawMessage, n)}
	}
	c.put(mk(1, 1024))
	c.put(mk(2, 1024))
	if c.get([32]byte{1}) == nil { // bump 1 so 2 is LRU
		t.Fatal("entry 1 missing")
	}
	c.put(mk(3, 1024)) // over capacity with overheads: evicts 2
	if c.get([32]byte{2}) != nil {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if c.get([32]byte{1}) == nil || c.get([32]byte{3}) == nil {
		t.Fatal("recently used entries evicted")
	}
	entries, bytes_, capacity, _, _, evictions := c.stats()
	if evictions == 0 || entries != 2 || bytes_ > capacity {
		t.Fatalf("entries=%d bytes=%d cap=%d evictions=%d", entries, bytes_, capacity, evictions)
	}
	// An oversized entry is admitted alone (never rejected outright).
	c.put(mk(9, 64*1024))
	if c.get([32]byte{9}) == nil {
		t.Fatal("oversized entry rejected")
	}
}

// TestAdmissionQueueFull: at queue depth the class rejects immediately
// with errQueueFull instead of queueing unboundedly.
func TestAdmissionQueueFull(t *testing.T) {
	q := newClassQueue(ClassBatch, 1, 1)
	release, _, err := q.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One waiter may queue...
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := q.admit(ctx)
		waiterErr <- err
	}()
	// ...wait until it is queued, then the next admit must bounce.
	for i := 0; q.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := q.admit(context.Background()); err != errQueueFull {
		t.Fatalf("over-depth admit: err = %v, want errQueueFull", err)
	}
	if q.rejected.Load() != 1 {
		t.Fatalf("rejected = %d, want 1", q.rejected.Load())
	}
	// Releasing the slot admits the queued waiter.
	release()
	if err := <-waiterErr; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	// Canceled waiters return the context error (the admitted waiter
	// still holds the only slot, so this admit must queue, then observe
	// the cancellation).
	cancel()
	if _, _, err := q.admit(ctx); err != context.Canceled {
		t.Fatalf("canceled admit: err = %v, want context.Canceled", err)
	}
}

// TestClientDisconnectCancelsFlight: when every waiter abandons a flight
// the analysis context is canceled and the flight errors out — the pool
// is not left running work nobody wants.
func TestClientDisconnectCancelsFlight(t *testing.T) {
	s := newTestServer(t, Config{})
	img, err := image.Load(synthBinary(t, 4242))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.do(ctx, img, ClassInteractive)
		done <- err
	}()
	// Wait until the flight exists, then disconnect.
	for i := 0; i < 1000; i++ {
		s.mu.Lock()
		n := len(s.flights)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("do: err = %v, want context.Canceled", err)
	}
	s.flightWG.Wait()
	if got := s.canceledFlights.Load(); got != 1 {
		t.Fatalf("canceled flights = %d, want 1", got)
	}
	s.mu.Lock()
	remaining := len(s.flights)
	s.mu.Unlock()
	if remaining != 0 {
		t.Fatalf("%d flights leaked after abandonment", remaining)
	}
}

// TestAsyncSubmitAndPoll: POST /v1/submit returns immediately; the
// result becomes pollable at /v1/result/{digest} once the flight lands.
func TestAsyncSubmitAndPoll(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bin := motivatingBinary(t)

	resp, err := http.Post(ts.URL+"/v1/submit?class=batch", "application/octet-stream", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct{ Digest, Status string }
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.Status != "accepted" {
		t.Fatalf("submit: status=%d body status=%q", resp.StatusCode, sub.Status)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/result/" + sub.Digest)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusOK {
			var out Response
			if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if out.Source != "hot" || len(out.Report) == 0 {
				t.Fatalf("poll result: source=%q reportLen=%d", out.Source, len(out.Report))
			}
			break
		}
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("poll: unexpected status %d", r.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("result never became available")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Unknown digests 404; malformed digests 400.
	if r, _ := http.Get(ts.URL + "/v1/result/" + strings.Repeat("ab", 32)); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest: status %d", r.StatusCode)
	}
	if r, _ := http.Get(ts.URL + "/v1/result/zzz"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed digest: status %d", r.StatusCode)
	}
}

// TestSuccessClearsStaleFailure: a digest whose async flight failed
// (rejected with errQueueFull) and later succeeded must not report the
// old failure once its hot entry is evicted — the poll says 404
// (resubmit), not "failed".
func TestSuccessClearsStaleFailure(t *testing.T) {
	s := newTestServer(t, Config{BatchSlots: 1, BatchQueue: 1, HotCacheBytes: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bin := motivatingBinary(t)
	poll := func(digest string) (int, string) {
		t.Helper()
		r, err := http.Get(ts.URL + "/v1/result/" + digest)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var body struct{ Status string }
		json.NewDecoder(r.Body).Decode(&body)
		return r.StatusCode, body.Status
	}

	// Hold the only batch slot and fill the one-deep queue, so the async
	// submission's admission bounces with errQueueFull.
	q := s.queues[ClassBatch]
	release, _, err := q.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan struct{})
	go func() {
		q.admit(waitCtx)
		close(waiterDone)
	}()
	for i := 0; q.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/submit?class=batch", "application/octet-stream", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct{ Digest string }
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	s.flightWG.Wait()
	if code, status := poll(sub.Digest); code != http.StatusOK || status != "failed" {
		t.Fatalf("rejected submission: poll = %d %q, want 200 \"failed\"", code, status)
	}
	cancelWaiter()
	<-waiterDone
	release()

	// The same digest now succeeds; a second image evicts its hot entry.
	if _, code := postAnalyze(t, ts, bin, "?class=batch"); code != http.StatusOK {
		t.Fatalf("retry: status %d", code)
	}
	if _, code := postAnalyze(t, ts, synthBinary(t, 7), "?class=batch"); code != http.StatusOK {
		t.Fatalf("evicting submission: status %d", code)
	}
	if code, status := poll(sub.Digest); code != http.StatusNotFound {
		t.Fatalf("evicted success: poll = %d %q, want 404", code, status)
	}
}

// TestWarmLaneAcrossRestart: a daemon started over a populated snapshot
// directory serves its first submission warm (and admission-free).
func TestWarmLaneAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	bin := motivatingBinary(t)

	s1 := newTestServer(t, Config{Analysis: rock.Options{CacheDir: dir}})
	ts1 := httptest.NewServer(s1.Handler())
	if out, _ := postAnalyze(t, ts1, bin, ""); out.Source != "cold" {
		t.Fatalf("first-ever analysis source = %q, want cold", out.Source)
	}
	ts1.Close()
	s1.Close()

	s2 := newTestServer(t, Config{Analysis: rock.Options{CacheDir: dir}})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	out, _ := postAnalyze(t, ts2, bin, "")
	if out.Source != "warm" {
		t.Fatalf("restarted daemon first submission source = %q, want warm", out.Source)
	}
	m := s2.Metrics()
	if m.AnalysesWarm != 1 || m.AnalysesCold != 0 {
		t.Fatalf("warm=%d cold=%d after restart", m.AnalysesWarm, m.AnalysesCold)
	}
	// Warm submissions bypass admission: no admitted count on any class.
	for class, cm := range m.Classes {
		if cm.Admitted != 0 {
			t.Fatalf("class %s admitted %d — warm lane must bypass admission", class, cm.Admitted)
		}
	}
}

// TestServeGracefulDrain: canceling Serve's context stops intake (503),
// lets in-flight work finish, and returns nil on a clean drain.
func TestServeGracefulDrain(t *testing.T) {
	s := newTestServer(t, Config{DrainTimeout: 20 * time.Second})
	ts := httptest.NewServer(s.Handler())
	bin := motivatingBinary(t)
	if _, code := postAnalyze(t, ts, bin, ""); code != http.StatusOK {
		t.Fatalf("pre-drain analyze: %d", code)
	}
	ts.Close()

	// Run the real Serve loop on its own listener and drain it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String()
	waitHealthy(t, url)

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	// Post-drain submissions are rejected at the singleflight gate.
	if _, _, err := s.joinFlight([32]byte{1}, nil, ClassInteractive); err != errDraining {
		t.Fatalf("post-drain join: err = %v, want errDraining", err)
	}
}

// TestServeClosesStalledHeader: a client that sends half a request header
// and stalls gets its connection closed once the header timeout passes,
// while a concurrent health check is served normally.
func TestServeClosesStalledHeader(t *testing.T) {
	defer func(d time.Duration) { headerTimeout = d }(headerTimeout)
	headerTimeout = 200 * time.Millisecond
	s := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/analyze HTTP/1.1\r\nHost: rockd\r\n"); err != nil {
		t.Fatal(err)
	}
	waitHealthy(t, "http://"+ln.Addr().String())

	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 1))
	if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("stalled connection still open after the header timeout")
	}
	if n != 0 || err == nil {
		t.Fatalf("stalled connection read %d bytes, err %v; want it closed", n, err)
	}
}

// TestServeFailsStalledBody: a client that sends a full header but only
// part of its body gets 408 once the body timeout passes, while health
// checks keep being served; a synchronous analysis that outlives the
// body timeout (here: held in admission) still completes.
func TestServeFailsStalledBody(t *testing.T) {
	defer func(d time.Duration) { bodyTimeout = d }(bodyTimeout)
	bodyTimeout = 200 * time.Millisecond
	s := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	url := "http://" + ln.Addr().String()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/analyze HTTP/1.1\r\nHost: rockd\r\nContent-Length: 1000\r\n\r\nRBIN"); err != nil {
		t.Fatal(err)
	}
	waitHealthy(t, url)

	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("stalled body got no response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("stalled body: status %d, want %d", resp.StatusCode, http.StatusRequestTimeout)
	}
	waitHealthy(t, url)

	// Hold every interactive slot so the next analysis waits in admission
	// for several body timeouts; its request context must survive that.
	q := s.queues[ClassInteractive]
	var releases []func()
	for i := 0; i < cap(q.slots); i++ {
		release, _, err := q.admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
	}
	bin := motivatingBinary(t)
	code := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/analyze", "application/octet-stream", bytes.NewReader(bin))
		if err != nil {
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	for i := 0; q.queued.Load() == 0 && i < 10000; i++ {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(3 * bodyTimeout)
	for _, release := range releases {
		release()
	}
	if got := <-code; got != http.StatusOK {
		t.Fatalf("analysis held past the body timeout: status %d, want 200", got)
	}
}

// TestMetricsEndpoint: the document parses, carries the per-class
// latency digests, and the stage rollup reflects executed analyses.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bin := motivatingBinary(t)
	postAnalyze(t, ts, bin, "")
	postAnalyze(t, ts, bin, "")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Submissions != 2 || m.HotHits != 1 {
		t.Fatalf("submissions=%d hot=%d", m.Submissions, m.HotHits)
	}
	ic := m.Classes["interactive"]
	if ic == nil || ic.Latency.Count != 2 || ic.Latency.P50NS <= 0 {
		t.Fatalf("interactive latency digest missing/empty: %+v", ic)
	}
	if m.Stages == nil || len(m.Stages.Stages) == 0 {
		t.Fatal("stage rollup empty after an analysis")
	}
	if m.Cache.Entries != 1 || m.Cache.Bytes <= 0 {
		t.Fatalf("cache gauges: %+v", m.Cache)
	}
}

// TestRejectsOversizedAndGarbage: protocol errors map to 4xx.
func TestRejectsOversizedAndGarbage(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 1024})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, code := postAnalyze(t, ts, bytes.Repeat([]byte{0xCC}, 4096), ""); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", code)
	}
	if _, code := postAnalyze(t, ts, []byte("not an image"), ""); code != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d", code)
	}
	if _, code := postAnalyze(t, ts, motivatingBinary(t), "?class=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad class: status %d", code)
	}
	if m := s.Metrics(); m.AnalysesCold+m.AnalysesWarm+m.AnalysesIncremental != 0 {
		t.Fatal("rejected submissions must not reach the engine")
	}
}

func waitHealthy(t *testing.T, url string) {
	t.Helper()
	for i := 0; i < 200; i++ {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}
