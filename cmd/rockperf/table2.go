package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/image"
	"repro/rock"
)

// table2 is the paper's suite as one rock.AnalyzeCorpus pass per op: the
// 19 Table 2 images, many small families. table2-cold passes into a
// fresh, empty cache directory (made and removed outside the timed
// region), so each op runs every stage and writes 19 snapshots;
// table2-warm passes against a cache primed in set-up, so each op is
// digest, header probe and snapshot decode with no analysis stage. The
// seed orders the images of each pass.
type table2 struct {
	warm  bool
	env   *runEnv
	ins   []*input
	cache string // primed cache directory (table2-warm)
	rng   *rand.Rand
}

func (w *table2) inputs() []*input { return w.ins }

func (w *table2) setup(ctx context.Context, env *runEnv, t *tally) error {
	w.env = env
	w.rng = rand.New(rand.NewSource(env.seed))
	benches, metas, ins, err := table2Inputs(env)
	if err != nil {
		return err
	}
	w.ins = ins
	if err := checkGolden(ctx, env, benches, metas, ins, t); err != nil {
		return err
	}
	if !w.warm {
		return nil
	}
	w.cache = filepath.Join(env.work, "warm-cache")
	if err := os.Mkdir(w.cache, 0o755); err != nil {
		return err
	}
	for _, in := range ins {
		in.cacheDir = w.cache
	}
	t.attempted++
	rep, err := rock.AnalyzeCorpus(ctx, images(ins), w.opts(w.cache))
	if err != nil {
		return err
	}
	if msg := checkCorpus(rep, ins); msg != "" {
		t.fail("priming pass: %s", msg)
	}
	return nil
}

func (w *table2) opts(cache string) rock.CorpusOptions {
	return rock.CorpusOptions{Options: rock.Options{Workers: w.env.workers, CacheDir: cache}}
}

func (w *table2) measure(ctx context.Context, t *tally) error {
	var wait time.Duration
	items, warm := 0, 0
	err := closedLoop(w.env.dur, 1, t, func(int) error {
		perm := w.rng.Perm(len(w.ins))
		ins := make([]*input, len(perm))
		for i, k := range perm {
			ins[i] = w.ins[k]
		}
		cache := w.cache
		if !w.warm {
			var err error
			if cache, err = os.MkdirTemp(w.env.work, "cold-"); err != nil {
				return err
			}
			defer os.RemoveAll(cache)
		}
		t.attempted++
		var rep *rock.CorpusReport
		var err error
		t.timed(func() { rep, err = rock.AnalyzeCorpus(ctx, images(ins), w.opts(cache)) })
		if err != nil {
			t.fail("corpus pass: %v", err)
			return nil
		}
		if msg := checkCorpus(rep, ins); msg != "" {
			t.fail("corpus pass: %s", msg)
		}
		t.units += len(ins)
		for _, it := range rep.Items {
			wait += it.Wait
		}
		items += len(rep.Items)
		warm += rep.Warm
		return nil
	})
	if err != nil {
		return err
	}
	t.set("corpus.wait_ms", ms(wait)/float64(max(items, 1)))
	t.set("corpus.warm_ratio", float64(warm)/float64(max(items, 1)))
	return nil
}

// checkCorpus compares every item of a corpus pass with its reference
// and names the first mismatch ("" when all match).
func checkCorpus(rep *rock.CorpusReport, ins []*input) string {
	for i, it := range rep.Items {
		if it.Err != nil {
			return fmt.Sprintf("%s: %v", ins[i].name, it.Err)
		}
		if canon(it.Report) != ins[i].ref {
			return fmt.Sprintf("%s: result differs from the reference", ins[i].name)
		}
	}
	return ""
}

func images(ins []*input) []*image.Image {
	out := make([]*image.Image, len(ins))
	for i, in := range ins {
		out[i] = in.img
	}
	return out
}

// checkGolden analyses the Table 2 images the way internal/eval does and
// compares their rows with internal/eval/testdata/table2.golden.
func checkGolden(ctx context.Context, env *runEnv, benches []*bench.Benchmark, metas []*image.Metadata, ins []*input, t *tally) error {
	path := filepath.Join(env.root, "internal", "eval", "testdata", "table2.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Workers = env.workers
	var b strings.Builder
	for i, bm := range benches {
		res, err := core.AnalyzeContext(ctx, ins[i].img, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", bm.Name, err)
		}
		r, err := eval.Score(bm, ins[i].img, metas[i], res)
		if err != nil {
			return err
		}
		// The row format of internal/eval's golden test.
		fmt.Fprintf(&b, "%-18s types=%-3d resolvable=%-5v without=%.4f/%.4f with=%.4f/%.4f\n",
			r.Name, r.Types, r.Resolvable, r.WithoutMissing, r.WithoutAdded, r.WithMissing, r.WithAdded)
	}
	t.attempted++
	if b.String() != string(want) {
		t.fail("Table 2 rows differ from %s", path)
	}
	return nil
}
