package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/image"
	"repro/internal/snapshot"
	"repro/rock"
)

// tracedReps bounds how often the traced pass repeats; each metric is the
// median over the repetitions of its per-pass sum over the inputs.
const tracedReps = 5

// stageMetrics names the per-layer metrics read from the analysis's own
// stage report: the stage's wall time and, where alloc is set, its
// allocated MiB. The stages not listed here (snapshot load and diff,
// evidence set-up, multiparents) and the code of core.AnalyzeContext
// around the stages make up core.residual_ms.
var stageMetrics = []struct{ stage, wall, alloc string }{
	{"disasm", "disasm.self_ms", ""},
	{"vtables", "vtable.self_ms", ""},
	{"tracelets", "objtrace.self_ms", "objtrace.alloc_mb"},
	{"structural", "structural.self_ms", ""},
	{"alphabet", "core.alphabet_ms", ""},
	{"train", "slm.train_ms", "slm.alloc_mb"},
	{"hierarchy", "core.hierarchy_ms", ""},
	{"snapshot-write", "snapshot.write_ms", ""},
}

// counterMetrics names the per-layer metrics read from the analysis's
// domain counters.
var counterMetrics = []struct{ counter, metric string }{
	{"tracelets", "objtrace.tracelets"},
	{"models", "slm.models"},
	{"dist_pairs", "slmkl.pairs"},
	{"co_optimal", "arborescence.co_optimal"},
}

// tracedPass runs after the measured phase. For each distinct input it
// times image.Load and ContentDigest on the image's bytes, analyses the
// image cold through rock.AnalyzeImageContext with an Observer at the
// workload's worker count, and times snapshot.Decode and Encode on the
// snapshot that analysis wrote. The pipeline layers come from the
// analysis's own stage report (core records each stage's wall time,
// allocations and counters on the bus); the direct calls cover the
// layers outside it. Every output is checked: the digest, the observed
// report against the reference, the re-encoded snapshot against the
// file. It repeats up to tracedReps times, stopping once a repetition
// ends after the measured phase's length, and returns the per-layer
// metrics and the repetitions run.
func tracedPass(ctx context.Context, p params, env *runEnv, ins []*input, t *tally) (map[string]float64, int, error) {
	var bus *rock.Observer
	if p.traceOut != "" {
		bus = rock.NewObserver()
		bus.Trace = rock.NewTrace()
	}
	var reps []map[string]float64
	start := time.Now()
	for len(reps) < tracedReps && (len(reps) == 0 || time.Since(start) < env.dur) {
		sum := map[string]float64{}
		for i, in := range ins {
			lt := &layerTimer{bus: bus, tag: fmt.Sprintf("%s op %d", p.workload, len(reps)*len(ins)+i), sum: sum}
			if err := traceInput(ctx, env, in, lt, t); err != nil {
				return nil, 0, fmt.Errorf("%s: %w", in.name, err)
			}
		}
		ratio := func(name, num, den string) {
			if sum[den] > 0 {
				sum[name] = sum[num] / sum[den]
			}
			delete(sum, num)
			delete(sum, den)
		}
		ratio("structural.admit_ratio", "admit.num", "admit.den")
		ratio("core.fn_reuse_ratio", "reuse.num", "reuse.den")
		ratio("trace.coverage", "cover.num", "cover.den")
		reps = append(reps, sum)
	}
	out := map[string]float64{}
	for name := range reps[0] {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r[name]
		}
		out[name] = median(vals)
	}
	if bus != nil {
		if err := bus.Trace.WriteFile(p.traceOut); err != nil {
			return nil, 0, err
		}
	}
	return out, len(reps), nil
}

// layerTimer times calls into per-pass sums, drawing one span per call on
// the benchmark's own bus when a trace is written.
type layerTimer struct {
	bus *rock.Observer
	tag string
	sum map[string]float64
}

// time runs f as one call, adds its wall time in ms to the metric named
// key (when set), and returns it.
func (lt *layerTimer) time(call, key string, f func()) float64 {
	sp := lt.bus.Span(call + " [" + lt.tag + "]")
	start := time.Now()
	f()
	d := ms(time.Since(start))
	sp.End()
	if key != "" {
		lt.sum[key] += d
	}
	return d
}

// analyze runs one observed rock.AnalyzeImageContext of in under opts,
// with the analysis's stage spans drawn inside the call's own span, and
// checks the report against in's reference. It returns the report and the
// call's wall time in ms.
func (lt *layerTimer) analyze(ctx context.Context, call string, in *input, opts rock.Options, check func(string, bool)) (*rock.Report, float64, error) {
	opts.Observer = rock.NewObserver()
	if lt.bus != nil {
		opts.Observer.Trace = lt.bus.Trace
	}
	var rep *rock.Report
	var err error
	wall := lt.time(call, "", func() { rep, err = rock.AnalyzeImageContext(ctx, in.img, opts) })
	if err != nil {
		return nil, 0, err
	}
	check(call+" report", canon(rep) == in.ref)
	return rep, wall, nil
}

// traceInput runs the traced pass for one input. Outputs that differ
// from the reference are failed checks in t.
func traceInput(ctx context.Context, env *runEnv, in *input, lt *layerTimer, t *tally) error {
	check := func(what string, ok bool) {
		t.attempted++
		if !ok {
			t.fail("traced pass %s: %s differs", in.name, what)
		}
	}
	var img *image.Image
	var err error
	lt.time("image.Load", "image.load_ms", func() { img, err = image.Load(in.wire) })
	if err != nil {
		return err
	}
	var digest [32]byte
	lt.time("image.ContentDigest", "image.digest_ms", func() { digest = img.ContentDigest() })
	check("loaded image's digest", digest == in.img.ContentDigest())
	if in.incrFrom != "" {
		lt.time("image.FunctionDigests", "image.digest_ms", func() { img.FunctionDigests() })
	}
	lt.sum["disasm.functions"] += float64(len(img.Entries))

	// The cold analysis, writing the snapshot the snapshot layer then
	// decodes and re-encodes.
	dir, err := os.MkdirTemp(env.work, "traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rep, wall, err := lt.analyze(ctx, "rock.AnalyzeImage cold", in, rock.Options{Workers: env.workers, CacheDir: dir}, check)
	if err != nil {
		return err
	}
	stages := map[string]float64{}
	allocs := map[string]float64{}
	for _, st := range rep.Stats.Stages {
		stages[st.Name] += ms(st.Wall)
		allocs[st.Name] += float64(st.AllocBytes) / (1 << 20)
	}
	covered := 0.0
	for _, sm := range stageMetrics {
		lt.sum[sm.wall] += stages[sm.stage]
		covered += stages[sm.stage]
		if sm.alloc != "" {
			lt.sum[sm.alloc] += allocs[sm.stage]
		}
	}
	// The SLM evidence provider runs inside the hierarchy stage, summed
	// over families, which run concurrently.
	lt.sum["slmkl.self_ms"] += stages["evidence:slm"]
	lt.sum["slmkl.alloc_mb"] += allocs["evidence:slm"]
	c := rep.Stats.Counters
	for _, cm := range counterMetrics {
		lt.sum[cm.metric] += float64(c[cm.counter])
	}
	lt.sum["admit.num"] += float64(c["candidate_edges"])
	lt.sum["admit.den"] += float64(c["candidate_edges"] + c["edges_pruned"])
	lt.sum["core.residual_ms"] += wall - covered
	lt.sum["cover.num"] += covered
	lt.sum["cover.den"] += wall

	snaps, err := filepath.Glob(filepath.Join(dir, "*.rsnap"))
	if err != nil || len(snaps) != 1 {
		return fmt.Errorf("want one snapshot from the analysis, found %d (%v)", len(snaps), err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		return err
	}
	var snap *snapshot.Snapshot
	lt.time("snapshot.Decode", "snapshot.decode_ms", func() { snap, err = snapshot.Decode(data) })
	if err != nil {
		return err
	}
	var enc []byte
	lt.time("snapshot.Encode", "snapshot.encode_ms", func() { enc, err = snap.Encode() })
	if err != nil {
		return err
	}
	check("re-encoded snapshot", bytes.Equal(enc, data))
	lt.sum["snapshot.bytes"] += float64(len(data))

	// Reuse under the workload's own configuration (its cache or prior).
	if in.incrFrom != "" || in.cacheDir != "" {
		opts := rock.Options{Workers: env.workers, CacheDir: in.cacheDir, IncrementalFrom: in.incrFrom}
		if rep, _, err = lt.analyze(ctx, "rock.AnalyzeImage as measured", in, opts, check); err != nil {
			return err
		}
	}
	fns := float64(len(in.img.Entries))
	switch c := rep.Stats.Counters; {
	case rep.Incremental:
		lt.sum["reuse.num"] += float64(c["fn_digest_hit"])
		lt.sum["reuse.den"] += float64(c["fn_digest_hit"] + c["fn_digest_miss"])
		lt.sum["core.families_resolved"] += float64(c["families_resolved"])
	case rep.SnapshotReuse >= snapshot.LevelHierarchy:
		lt.sum["reuse.num"] += fns
		lt.sum["reuse.den"] += fns
	default:
		lt.sum["reuse.den"] += fns
		lt.sum["core.families_resolved"] += float64(len(rep.Families))
	}
	return nil
}
