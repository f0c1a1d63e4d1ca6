package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/rockd"
	"repro/rock"
)

// rockd-mix traffic: one in-process daemon over loopback HTTP, open
// loop, one generator goroutine and one connection per stream. The
// ratios and rates are an assumption, not recorded traffic: most
// submissions repeat, a few are new, and a batch stream runs beside them.
const (
	// interactiveRate is the interactive stream's request rate.
	interactiveRate = 50.0
	// Each block of blockSlots interactive requests holds one slow slot at
	// a seeded position, alternately a first-seen image and the batch
	// stream's latest image; the rest are hot repeats.
	blockSlots = 20
	// zipfS skews the hot requests over the 19 Table 2 images, ranked in
	// Table 2 order for every seed so the hot mix costs the same.
	zipfS = 1.1
	// batchRate is the batch stream's rate of distinct deep images,
	// submitted with ?class=batch.
	batchRate = 0.5
	// refRoom is the least idle time before the next interactive request
	// for the generator to run the reference kernel in the gap.
	refRoom = 15 * time.Millisecond
)

// slot is one scheduled interactive request.
type slot struct {
	at time.Duration // due time from the start of the measured phase
	in *input        // nil for the batch stream's latest image
}

// rockdMix drives the daemon with two streams. Interactive: requests at
// interactiveRate — 95% Zipf repeats of the Table 2 images (made hot in
// set-up), 2.5% first-seen small images (cold analyses), 2.5% the batch
// stream's latest image (joining its flight, or hot). Batch: distinct
// deep images at batchRate. It is fleet traffic where most submissions
// repeat: the hot cache, singleflight, admission and HTTP path.
type rockdMix struct {
	env   *runEnv
	hot   []*input
	cold  []*input
	batch []*input
	slots []slot

	url  string
	stop func() error
}

func (w *rockdMix) inputs() []*input {
	return append(append(append([]*input(nil), w.hot...), w.cold...), w.batch...)
}

func (w *rockdMix) setup(ctx context.Context, env *runEnv, t *tally) error {
	w.env = env
	rng := rand.New(rand.NewSource(env.seed))
	benches, metas, hot, err := table2Inputs(env)
	if err != nil {
		return err
	}
	w.hot = hot
	if err := checkGolden(ctx, env, benches, metas, hot, t); err != nil {
		return err
	}

	small := smallProgram()
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1))
	slow := 0
	for k := 0; k < int(interactiveRate*env.dur.Seconds()); k++ {
		if k%blockSlots == 0 {
			slow = k + rng.Intn(blockSlots)
		}
		s := slot{at: time.Duration(float64(k) / interactiveRate * float64(time.Second))}
		switch {
		case k != slow:
			s.in = hot[zipf.Uint64()]
		case k/blockSlots%2 == 0:
			name := fmt.Sprintf("small-%d", len(w.cold))
			img, meta, err := relabel(small, name, rng.Int63())
			if err != nil {
				return err
			}
			if s.in, err = newInput(name, img, meta, nil, env.workers); err != nil {
				return err
			}
			w.cold = append(w.cold, s.in)
		}
		w.slots = append(w.slots, s)
	}
	deep := deepPrograms(4)
	for j := 0; j < int(math.Ceil(batchRate*env.dur.Seconds())); j++ {
		name := fmt.Sprintf("batch-%d", j)
		img, meta, err := relabel(deep[j%len(deep)], name, rng.Int63())
		if err != nil {
			return err
		}
		in, err := newInput(name, img, meta, nil, env.workers)
		if err != nil {
			return err
		}
		w.batch = append(w.batch, in)
	}
	if err := distinct(w.inputs()); err != nil {
		return err
	}

	if err := w.start(); err != nil {
		return err
	}
	c := client()
	defer c.CloseIdleConnections()
	verified := map[string]bool{}
	for _, in := range w.hot {
		t.attempted++
		r, err := decode(w.post(c, in, ""))
		if err != nil {
			t.fail("priming %s: %v", in.name, err)
		} else if !checked(r, in, verified) {
			t.fail("priming %s: report differs from the reference", in.name)
		}
	}
	return nil
}

// distinct checks that no two inputs share a digest, so every first-seen
// and batch image is really new to the daemon.
func distinct(ins []*input) error {
	seen := map[[32]byte]string{}
	for _, in := range ins {
		d := in.img.ContentDigest()
		if other, ok := seen[d]; ok {
			return fmt.Errorf("%s and %s have the same digest", in.name, other)
		}
		seen[d] = in.name
	}
	return nil
}

// start serves a fresh daemon, with a snapshot cache, on a loopback port.
func (w *rockdMix) start() error {
	cache := filepath.Join(w.env.work, "rockd-cache")
	if err := os.Mkdir(cache, 0o755); err != nil {
		return err
	}
	srv, err := rockd.New(rockd.Config{Analysis: rock.Options{Workers: w.env.workers, CacheDir: cache}})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	w.url = "http://" + ln.Addr().String()
	w.stop = func() error {
		cancel()
		return <-served
	}
	return nil
}

// close stops the daemon of a set-up the run discards.
func (w *rockdMix) close() {
	if w.stop != nil {
		_ = w.stop() // a discarded daemon's drain error changes nothing
	}
}

// client returns an HTTP client holding at most one connection.
func client() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// post submits in's bytes to /v1/analyze and reads the whole response;
// anything but 200 is an error.
func (w *rockdMix) post(c *http.Client, in *input, query string) ([]byte, error) {
	resp, err := c.Post(w.url+"/v1/analyze"+query, "application/octet-stream", bytes.NewReader(in.wire))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// reply is the part of a rockd response the benchmark reads.
type reply struct {
	Source      string          `json:"source"`
	Coalesced   bool            `json:"coalesced"`
	QueueWaitNS int64           `json:"queue_wait_ns"`
	Report      json.RawMessage `json:"report"`
}

func decode(body []byte, err error) (*reply, error) {
	if err != nil {
		return nil, err
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// checked reports whether a reply's report matches in's reference;
// verified remembers reports already found equal (a hot hit returns the
// same bytes every time).
func checked(r *reply, in *input, verified map[string]bool) bool {
	key := in.name + "\x00" + string(r.Report)
	if verified[key] {
		return true
	}
	var c compared
	if json.Unmarshal(r.Report, &c) != nil || canonOf(c) != in.ref {
		return false
	}
	verified[key] = true
	return true
}

// outcome is one completed request.
type outcome struct {
	in         *input
	body       []byte
	err        error
	lat        time.Duration // from when it was due, or sent (see send)
	late       time.Duration // how late the generator sent it
	cpu        time.Duration // process CPU time from send to response
	sent, done time.Time
}

// stream is one open-loop generator: it sends each request when due on
// its single connection.
type stream struct {
	c     *http.Client
	start time.Time
	prev  time.Time // when the previous request completed
}

// send waits until the request is due at start+at, sends it, and times
// it up to the last byte of the response. The request is timed from when
// it was due if the previous request on the connection was still running
// then — the wait a stall imposes on it — and otherwise from when it was
// sent, so the generator's own timer slack is not charged to the daemon.
// The process CPU time over the request is the client's and the daemon's
// work for it, plus whatever else the process ran meanwhile.
func (s *stream) send(at time.Duration, in *input, post func(*http.Client, *input) ([]byte, error)) outcome {
	due := s.start.Add(at)
	time.Sleep(time.Until(due))
	cpu := cpuTime()
	sent := time.Now()
	body, err := post(s.c, in)
	done := time.Now()
	cpu = cpuTime() - cpu
	from := sent
	if s.prev.After(due) {
		from = due
	}
	s.prev = done
	return outcome{in: in, body: body, err: err, lat: done.Sub(from), late: sent.Sub(due), cpu: cpu, sent: sent, done: done}
}

func (w *rockdMix) measure(ctx context.Context, t *tally) error {
	var inter, batch []outcome
	var refErr error
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	go func() {
		defer wg.Done()
		s := &stream{c: client(), start: start}
		defer s.c.CloseIdleConnections()
		for j, in := range w.batch {
			at := time.Duration(float64(j) / batchRate * float64(time.Second))
			batch = append(batch, s.send(at, in, func(c *http.Client, in *input) ([]byte, error) {
				return w.post(c, in, "?class=batch")
			}))
		}
	}()
	go func() {
		defer wg.Done()
		s := &stream{c: client(), start: start}
		defer s.c.CloseIdleConnections()
		var last time.Time
		for k, sl := range w.slots {
			in := sl.in
			if in == nil {
				in = w.batch[min(int(sl.at.Seconds()*batchRate), len(w.batch)-1)]
			}
			inter = append(inter, s.send(sl.at, in, func(c *http.Client, in *input) ([]byte, error) {
				return w.post(c, in, "")
			}))
			t.watchRSS()
			// The reference kernel runs in the idle gap before the next
			// request, never beside an interactive one.
			if k+1 < len(w.slots) && time.Since(last) >= refEvery && time.Until(start.Add(w.slots[k+1].at)) >= refRoom {
				if refErr = t.reference(); refErr != nil {
					return
				}
				last = time.Now()
			}
		}
	}()
	wg.Wait()
	if err := w.stop(); err != nil {
		t.fail("daemon drain: %v", err)
	}
	if refErr != nil {
		return refErr
	}
	// A kernel run beside a batch analysis shares the CPUs with it; only
	// the others scale the ops.
	refs := t.refs[:0]
	for _, r := range t.refs {
		if !overlaps(r.start, r.done, batch) {
			refs = append(refs, r)
		}
	}
	t.refs = refs

	verified := map[string]bool{}
	var hot, cold, coalesced, waited int
	var wait, batchWait time.Duration
	var late, batchLat []float64
	// tallyReply checks one reply and counts what it says about the
	// daemon's paths; it returns the reply, nil when it was wrong.
	tallyReply := func(o outcome) *reply {
		t.attempted++
		r, err := decode(o.body, o.err)
		switch {
		case err != nil:
			t.fail("%s: %v", o.in.name, err)
			return nil
		case !checked(r, o.in, verified):
			t.fail("%s: report differs from the reference", o.in.name)
			return nil
		}
		switch r.Source {
		case "hot":
			hot++
		case "cold":
			cold++
		}
		if r.Coalesced {
			coalesced++
		}
		return r
	}
	for _, o := range inter {
		late = append(late, ms(o.late))
		t.wall = append(t.wall, ms(o.lat))
		r := tallyReply(o)
		if r != nil && r.Source != "hot" {
			wait += time.Duration(r.QueueWaitNS)
			waited++
		}
		// The process CPU time of a request that overlapped a batch request
		// holds part of a batch analysis; the cost metrics take only the
		// others.
		if overlaps(o.sent, o.done, batch) {
			continue
		}
		t.ops = append(t.ops, refSample{start: o.sent, done: o.done, cpu: o.cpu})
		if r != nil {
			t.units++
		}
	}
	t.set("rockd.hot_ratio", float64(hot)/float64(max(len(inter), 1)))
	for _, o := range batch {
		batchLat = append(batchLat, ms(o.lat))
		if r := tallyReply(o); r != nil {
			batchWait += time.Duration(r.QueueWaitNS)
		}
	}
	t.set("rockd.cold", float64(cold))
	t.set("rockd.coalesced", float64(coalesced))
	t.set("rockd.queue_wait_ms", ms(wait)/float64(max(waited, 1)))
	t.set("rockd.batch_queue_wait_ms", ms(batchWait)/float64(max(len(batch), 1)))
	t.set("rockd.latency_p99_ms", percentile(t.wall, 0.99))
	t.set("rockd.batch_latency_ms", median(batchLat))
	t.set("loadgen.late_p99_ms", percentile(late, 0.99))
	return ctx.Err()
}

// overlaps reports whether the interval from start to done meets the time
// any of others was in flight.
func overlaps(start, done time.Time, others []outcome) bool {
	for _, b := range others {
		if start.Before(b.done) && b.sent.Before(done) {
			return true
		}
	}
	return false
}
