package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/eval"
	"repro/internal/hierarchy"
	"repro/internal/image"
	"repro/rock"
)

// workload is one fixed benchmark scenario.
type workload interface {
	// setup builds the inputs and their references; its wall time is
	// setup_s. Mismatches it finds (the Table 2 golden check) go to t.
	setup(ctx context.Context, env *runEnv, t *tally) error
	// measure runs the timed phase for about runEnv.dur, observation off.
	measure(ctx context.Context, t *tally) error
	// inputs lists the distinct images the traced pass analyses.
	inputs() []*input
}

// runEnv is what every workload of one run shares.
type runEnv struct {
	seed    int64
	workers int
	// dur is the length of the measured phase; the open-loop workload
	// sizes its inputs from it.
	dur time.Duration
	// work is a scratch directory for this run (snapshot caches); the
	// caller removes it.
	work string
	// root is the repository root (for the Table 2 golden file).
	root string
}

// input is one distinct image a workload analyses, with the reference
// result every timed analysis of it must reproduce.
type input struct {
	name string
	img  *image.Image // stripped: what a user submits
	wire []byte       // img serialized, as uploaded to rockd
	// ref is canon of rock.AnalyzeImage without a cache.
	ref string
	// edges scores ref against the compiler's ground truth.
	edges eval.EdgeScore
	// incrFrom, when set, is the prior snapshot the workload analyses
	// this input against; cacheDir is the snapshot cache it analyses with.
	incrFrom, cacheDir string
}

// newInput computes img's reference and scores it against meta over the
// counted types (every primary type when counted is nil).
func newInput(name string, img *image.Image, meta *image.Metadata, counted []uint64, workers int) (*input, error) {
	wire, err := img.Marshal()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep, err := rock.AnalyzeImage(img, rock.Options{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("%s: reference analysis: %w", name, err)
	}
	gt, err := eval.GroundTruthForest(meta)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if counted == nil {
		for _, tm := range meta.Types {
			if !tm.Secondary {
				counted = append(counted, tm.VTable)
			}
		}
	}
	var types []uint64
	for _, ty := range rep.Types {
		types = append(types, ty.VTable)
	}
	pred := hierarchy.NewForest(types)
	for _, e := range rep.Edges {
		if err := pred.SetParent(e.Child, e.Parent); err != nil {
			return nil, fmt.Errorf("%s: reference edge: %w", name, err)
		}
	}
	return &input{
		name:  name,
		img:   img,
		wire:  wire,
		ref:   canon(rep),
		edges: eval.ScoreEdges(gt, pred, counted),
	}, nil
}

// compared holds the result fields a timed analysis must reproduce.
type compared struct {
	Types        []rock.Type
	Families     [][]uint64
	Edges        []rock.Edge
	MultiParents map[uint64][]uint64
}

// canon renders the compared fields of a report as JSON; maps marshal
// with sorted keys, so equal results give equal strings.
func canon(rep *rock.Report) string {
	return canonOf(compared{rep.Types, rep.Families, rep.Edges, rep.MultiParents})
}

func canonOf(c compared) string {
	b, err := json.Marshal(c)
	if err != nil {
		// Slices and integer-keyed maps of plain values always marshal.
		panic(err)
	}
	return string(b)
}

// edgeF1 pools the per-edge scores of the inputs into one F1.
func edgeF1(ins []*input) float64 {
	tp, fp, fn := 0, 0, 0
	for _, in := range ins {
		tp += in.edges.TP
		fp += in.edges.FP
		fn += in.edges.FN
	}
	if 2*tp+fp+fn == 0 {
		return 1
	}
	return float64(2*tp) / float64(2*tp+fp+fn)
}

// tally accumulates one run's measurements and correctness checks.
type tally struct {
	// ref runs the reference kernel; refs are its runs in the measured
	// phase, in time order.
	ref  *reference
	refs []refSample
	// ops are the timed ops with their process CPU time, and wall their
	// wall-clock latencies in ms (on rockd-mix from when the request was
	// due).
	ops  []refSample
	wall []float64
	// units counts the analyses completed in the measured phase (images,
	// or interactive requests on rockd-mix), for throughput.
	units int
	// rss holds the peak RSS in MiB of each rssWindow of the measured
	// phase, and rssFrom is when the current window began.
	rss     []float64
	rssFrom time.Time
	// attempted and failed count checked operations: timed ops, the
	// golden check and the traced pass's verifications.
	attempted, failed int
	failures          []string
	// layer holds per-layer values the measured phase observes (corpus,
	// rockd and load-generator counters).
	layer map[string]float64
}

// fail records a failed check; the first few are kept by name.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// set records a per-layer value of the measured phase.
func (t *tally) set(name string, v float64) {
	if t.layer == nil {
		t.layer = map[string]float64{}
	}
	t.layer[name] = v
}

// closedLoop runs op back to back in whole decks of deck ops until d has
// passed, with a run of the reference kernel before the first op, after
// the last, and between ops at least refEvery apart. op times its own
// call with tally.timed, so untimed preparation and result checks stay
// out of the measurement; an error from op ends the run.
func closedLoop(d time.Duration, deck int, t *tally, op func(i int) error) error {
	start := time.Now()
	var last time.Time
	for i := 0; i%deck != 0 || time.Since(start) < d; i++ {
		if time.Since(last) >= refEvery {
			if err := t.reference(); err != nil {
				return err
			}
			last = time.Now()
		}
		if err := op(i); err != nil {
			return err
		}
		t.watchRSS()
	}
	return t.reference()
}

// rssWindow is the length of the windows peak_rss_mb is the median peak
// of. The peak of a whole run depends on when the collector happened to
// run and spread 16% over ten table2-cold runs; the median window peak
// holds still.
const rssWindow = time.Second

// watchRSS ends the current peak-RSS window once it is rssWindow long: it
// keeps the window's peak and restarts the kernel's high-water mark.
func (t *tally) watchRSS() {
	if time.Since(t.rssFrom) < rssWindow {
		return
	}
	t.rss = append(t.rss, peakRSSMB())
	_ = resetPeakRSS() // without a reset, each window reads the run's peak so far
	t.rssFrom = time.Now()
}

// reference runs the reference kernel once and keeps the sample.
func (t *tally) reference() error {
	s, err := t.ref.run()
	if err != nil {
		return err
	}
	t.refs = append(t.refs, s)
	return nil
}

// timed runs f as the timed region of one op and records its process CPU
// time and wall-clock latency.
func (t *tally) timed(f func()) {
	c0, w0 := cpuTime(), time.Now()
	f()
	done := time.Now()
	t.ops = append(t.ops, refSample{start: w0, done: done, cpu: cpuTime() - c0})
	t.wall = append(t.wall, ms(done.Sub(w0)))
}

// costs returns the ops' CPU times at the reference speed, in ms.
func (t *tally) costs() ([]float64, error) {
	out := make([]float64, len(t.ops))
	for i, op := range t.ops {
		c, err := scaled(op, t.refs)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// cpuTime returns the CPU time the process has used so far, user and
// system, over all its threads. The kernel leaves out the time the host
// ran other tenants on the virtual CPUs (steal), so it grows far less
// than wall-clock time when the shared host is busy.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the ticks the host took from this machine's CPUs and
// all ticks so far, from /proc/stat; zeros where it is unavailable.
func stealTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM), so peak_rss_mb covers the measured phase and not set-up.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM in MiB; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f", &kb); err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// workloads maps each workload name to its constructor, in report order.
var workloads = []struct {
	name string
	make func() workload
}{
	{"table2-cold", func() workload { return &table2{} }},
	{"table2-warm", func() workload { return &table2{warm: true} }},
	{"deep-cold", func() workload { return &deepCold{} }},
	{"deep-incr", func() workload { return &deepIncr{} }},
	{"rockd-mix", func() workload { return &rockdMix{} }},
}

// params are the settings of one workload run.
type params struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// traceOut, when set, receives the traced pass as chrome-trace JSON.
	traceOut string
	// root is the repository root; work is where the run's scratch
	// directory is created.
	root, work string
}

// setups is how often a run sets its workload up; setup_s is the median.
// One set-up's CPU time varies by about a tenth within a process, so the
// median needs more than three.
const setups = 5

// setupRefs is how many kernel runs are made between two set-ups; a
// set-up is scaled by the median of the runs just before and after it.
const setupRefs = 3

// runWorkload sets up one workload, measures it, optionally runs the
// traced pass, and returns its record. An error means the run could not
// produce a result at all (bad flags, a failed build of the inputs);
// wrong analysis results are failed checks in the record instead.
func runWorkload(ctx context.Context, p params) (*record, error) {
	var newWorkload func() workload
	for _, c := range workloads {
		if c.name == p.workload {
			newWorkload = c.make
		}
	}
	if newWorkload == nil {
		return nil, fmt.Errorf("unknown workload %q", p.workload)
	}
	if err := os.MkdirAll(p.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(p.work, p.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	ref, err := startReference()
	if err != nil {
		return nil, fmt.Errorf("reference process: %w", err)
	}
	defer ref.close() // its exit status tells nothing once the run is over
	runRefs := func() ([]refSample, error) {
		var refs []refSample
		for len(refs) < setupRefs {
			s, err := ref.run()
			if err != nil {
				return nil, err
			}
			refs = append(refs, s)
		}
		return refs, nil
	}

	// Set up repeatedly, each time into a scratch directory of its own,
	// and keep the last; setup_s is the median of their CPU times at the
	// reference speed.
	var w workload
	var env *runEnv
	var t *tally
	var setupS []float64
	before, err := runRefs()
	if err != nil {
		return nil, err
	}
	for i := 0; i < setups; i++ {
		if c, ok := w.(interface{ close() }); ok {
			c.close()
		}
		env = &runEnv{
			seed:    p.seed,
			workers: runtime.GOMAXPROCS(0),
			dur:     time.Duration(p.seconds * float64(time.Second)),
			work:    filepath.Join(work, fmt.Sprint(i)),
			root:    p.root,
		}
		if err := os.Mkdir(env.work, 0o755); err != nil {
			return nil, err
		}
		w, t = newWorkload(), &tally{ref: ref}
		start := cpuTime()
		if err := w.setup(ctx, env, t); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", p.workload, err)
		}
		cpu := cpuTime() - start
		after, err := runRefs()
		if err != nil {
			return nil, err
		}
		speed := float64(refNominal) / refMedian(append(before, after...))
		setupS = append(setupS, cpu.Seconds()*speed)
		before = after
	}
	// The measured phase starts from a collected heap, and peak_rss_mb
	// covers only its own windows (without a resettable high-water mark
	// every window reads the peak of set-up too).
	runtime.GC()
	debug.FreeOSMemory()
	_ = resetPeakRSS()
	steal0, total0 := stealTicks()
	begun := time.Now()
	t.rssFrom = begun
	if err := w.measure(ctx, t); err != nil {
		return nil, fmt.Errorf("%s: %w", p.workload, err)
	}
	phase := time.Since(begun)
	steal1, total1 := stealTicks()
	t.rss = append(t.rss, peakRSSMB()) // the last, partial window
	costs, err := t.costs()
	if err == nil && len(costs) == 0 {
		err = errors.New("no op was timed")
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.workload, err)
	}
	sum := 0.0
	for _, c := range costs {
		sum += c
	}
	cpu := make([]float64, len(t.ops))
	for i, op := range t.ops {
		cpu[i] = ms(op.cpu)
	}
	vals := map[string]float64{
		"setup_s":     median(setupS),
		"cost_p50":    percentile(costs, 0.50),
		"cost_p90":    percentile(costs, 0.90),
		"throughput":  float64(t.units) / (sum / 1000),
		"peak_rss_mb": median(t.rss),
		"edge_f1":     edgeF1(w.inputs()),
	}
	rec := &record{
		Workload: p.workload,
		Metrics:  pick(endToEnd, vals),
		Env: environment{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Workers:    env.workers,
			Seed:       p.seed,
			Seconds:    p.seconds,
			Setups:     len(setupS),
			Ops:        len(costs),
			OpWallMS:   ms(phase) / float64(max(len(costs), 1)),
			CPUP50MS:   percentile(cpu, 0.50),
			WallP50MS:  percentile(t.wall, 0.50),
			WallP90MS:  percentile(t.wall, 0.90),
			RefRuns:    len(t.refs),
			RefMS:      refMedian(t.refs) / 1e6,
		},
	}
	if total1 > total0 {
		rec.Env.StealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	if p.traced {
		layers, reps, err := tracedPass(ctx, p, env, w.inputs(), t)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", p.workload, err)
		}
		for k, v := range t.layer {
			layers[k] = v
		}
		for k, m := range pick(perLayer, layers) {
			rec.Metrics[k] = m
		}
		rec.Env.TracedReps = reps
	}
	rec.Correct, rec.Attempted, rec.Failed, rec.Failures = t.failed == 0, t.attempted, t.failed, t.failures
	return rec, nil
}
