package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/image"
	"repro/rock"
)

// deepCold analyses one of four deep images per op, round robin in a
// seeded order per round, with no cache: the SLM sweep is most of the
// busy time and the family fan-out uses every worker.
type deepCold struct {
	env *runEnv
	ins []*input
	rng *rand.Rand
}

func (w *deepCold) inputs() []*input { return w.ins }

func (w *deepCold) setup(ctx context.Context, env *runEnv, t *tally) error {
	w.env = env
	w.rng = rand.New(rand.NewSource(env.seed))
	for i, prog := range deepPrograms(4) {
		name := fmt.Sprintf("deep-%d", i)
		img, meta, err := relabel(prog, name, w.rng.Int63())
		if err != nil {
			return err
		}
		in, err := newInput(name, img, meta, nil, env.workers)
		if err != nil {
			return err
		}
		w.ins = append(w.ins, in)
	}
	return nil
}

func (w *deepCold) measure(ctx context.Context, t *tally) error {
	var order []int
	return closedLoop(w.env.dur, len(w.ins), t, func(i int) error {
		if i%len(w.ins) == 0 {
			order = w.rng.Perm(len(w.ins))
		}
		analyzeOne(ctx, w.ins[order[i%len(w.ins)]], rock.Options{Workers: w.env.workers}, t)
		return nil
	})
}

// analyzeOne is one timed rock.AnalyzeImage op, checked against in's
// reference.
func analyzeOne(ctx context.Context, in *input, opts rock.Options, t *tally) {
	t.attempted++
	var rep *rock.Report
	var err error
	t.timed(func() { rep, err = rock.AnalyzeImageContext(ctx, in.img, opts) })
	switch {
	case err != nil:
		t.fail("%s: %v", in.name, err)
	case canon(rep) != in.ref:
		t.fail("%s: result differs from the reference", in.name)
	default:
		t.units++
	}
}

// deepIncr re-analyses patched versions of a deep image against the base
// version's snapshot (rock.Options.IncrementalFrom), without writing a
// cache: the version-diff lane, where prior decode, digests, disassembly
// and alphabet dominate and the sweep reruns on one family at most.
//
// A deck of ten ops holds seven patches that retrain no type and one
// patch that retrains at least one type but fewer than half of them,
// three times: a 70/30 mix with p50 among the first and p90 inside the
// second. The cheap patches all cost about the same, so the seed draws
// them. A retraining patch costs what re-solving its family costs, so
// that one is the patch whose retrained types lie in the largest family
// (the first by function name on a tie), and the base image is the
// first deep program compiled as is: which patches retrain depends on
// the image layout, and a relabelled base would change the patch and
// its cost with the seed.
type deepIncr struct {
	env   *runEnv
	ins   []*input // the seven cheap patches, then the retraining one
	prior string
	rng   *rand.Rand
}

// deck is the ops of one deckful: indices into deepIncr.ins.
var incrDeck = []int{0, 1, 2, 3, 4, 5, 6, 7, 7, 7}

func (w *deepIncr) inputs() []*input { return w.ins }

func (w *deepIncr) setup(ctx context.Context, env *runEnv, t *tally) error {
	w.env = env
	w.rng = rand.New(rand.NewSource(env.seed))
	built, err := compiler.Compile(deepPrograms(1)[0], compiler.DefaultOptions())
	if err != nil {
		return err
	}
	base, meta := built.Strip(), built.Meta
	dir := filepath.Join(env.work, "incr-base")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Workers = env.workers
	cfg.CacheDir = dir
	prior, err := core.AnalyzeContext(ctx, base, cfg)
	if err != nil {
		return err
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "*.rsnap"))
	if err != nil || len(snaps) != 1 {
		return fmt.Errorf("want one base snapshot, found %d (%v)", len(snaps), err)
	}
	w.prior = snaps[0]
	famSize := map[uint64]int{}
	for _, fam := range prior.Structural.Families {
		for _, ty := range fam {
			famSize[ty] = len(fam)
		}
	}

	// Classify every patch on the incremental lane, in function-name order.
	cands := bench.PatchableFunctions(base)
	sort.Slice(cands, func(i, j int) bool { return meta.FuncNames[cands[i]] < meta.FuncNames[cands[j]] })
	type patched struct {
		entry uint64
		img   *image.Image
	}
	var cheap []patched
	var slow patched
	slowFam := 0
	cfg.CacheDir = ""
	cfg.IncrementalFrom = w.prior
	for _, entry := range cands {
		img := base.Strip()
		if err := bench.PatchFunction(img, entry); err != nil {
			return err
		}
		res, err := core.AnalyzeContext(ctx, img, cfg)
		if err != nil {
			return err
		}
		switch st := res.Incremental; {
		case st == nil || 2*st.TypesRetrained >= len(res.VTables):
		case st.TypesRetrained == 0:
			cheap = append(cheap, patched{entry, img})
		default:
			for _, v := range res.VTables {
				if famSize[v.Addr] > slowFam && !reflect.DeepEqual(res.Frozen[v.Addr], prior.Frozen[v.Addr]) {
					slow, slowFam = patched{entry, img}, famSize[v.Addr]
				}
			}
		}
	}
	if len(cheap) < 7 || slow.img == nil {
		return fmt.Errorf("%d patches retrain no type and %d retrain some, want 7 and 1", len(cheap), min(slowFam, 1))
	}
	w.rng.Shuffle(len(cheap), func(i, j int) { cheap[i], cheap[j] = cheap[j], cheap[i] })
	for _, p := range append(cheap[:7], slow) {
		in, err := newInput(meta.FuncNames[p.entry], p.img, meta, nil, env.workers)
		if err != nil {
			return err
		}
		in.incrFrom = w.prior
		w.ins = append(w.ins, in)
	}
	return nil
}

func (w *deepIncr) measure(ctx context.Context, t *tally) error {
	opts := rock.Options{Workers: w.env.workers, IncrementalFrom: w.prior}
	var order []int
	return closedLoop(w.env.dur, len(incrDeck), t, func(i int) error {
		if i%len(incrDeck) == 0 {
			order = w.rng.Perm(len(incrDeck))
		}
		analyzeOne(ctx, w.ins[incrDeck[order[i%len(incrDeck)]]], opts, t)
		return nil
	})
}
