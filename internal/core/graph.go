package core

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/disasm"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/snapshot"
	"repro/internal/structural"
	"repro/internal/vtable"
)

// behavioral marks the stages that exist only for the full (UseSLM)
// analysis; under StructuralOnly they are reported as disabled.
var behavioral = map[string]bool{
	"alphabet": true, "train": true, "evidence": true, "hierarchy": true, "multiparents": true,
}

// graph builds the pipeline stage graph for this configuration — the §4
// chain as stages in execution order, with snapshot sections and
// canonical config renderings. The graph is the single source of truth
// for the snapshot fingerprints: spec-only graphs (res == nil) carry no
// Run hooks and exist just to derive keys (snapshotKey, ProbeSnapshot);
// with a Result the stages are bound to that one analysis.
//
// The canon strings are load-bearing: section fingerprints hash them, so
// any change invalidates every existing snapshot. cfg must already have
// defaults resolved (withDefaults).
func (c Config) graph(res *Result) *pipeline.Graph {
	tr := c.Trace.WithDefaults()
	bus := c.Obs
	bind := func(f func(ctx context.Context) error) func(ctx context.Context) error {
		if res == nil {
			return nil
		}
		return f
	}
	g, err := pipeline.New(
		pipeline.Stage{
			Name:    "disasm",
			Section: pipeline.SecExtraction,
			Run: bind(func(ctx context.Context) error {
				fns, err := disasm.All(res.Image)
				if err != nil {
					return fmt.Errorf("core: disassembly failed: %w", err)
				}
				res.Funcs = fns
				return nil
			}),
		},
		pipeline.Stage{
			Name:    "vtables",
			Section: pipeline.SecExtraction,
			Run: bind(func(ctx context.Context) error {
				res.VTables = vtable.Discover(res.Image, res.Funcs)
				bus.Add(obs.CntVTables, int64(len(res.VTables)))
				return nil
			}),
		},
		pipeline.Stage{
			Name:    "tracelets",
			Section: pipeline.SecExtraction,
			Canon: fmt.Sprintf("paths=%d steps=%d unroll=%d window=%d tracelen=%d",
				tr.MaxPaths, tr.MaxSteps, tr.MaxUnroll, tr.Window, tr.MaxTraceLen),
			Run: bind(func(ctx context.Context) error {
				if err := res.extractTracelets(ctx, c); err != nil {
					return err
				}
				for _, seqs := range res.Tracelets.PerType {
					bus.Add(obs.CntTracelets, int64(len(seqs)))
				}
				for _, seqs := range res.Tracelets.RawPerType {
					bus.Add(obs.CntRawTracelets, int64(len(seqs)))
				}
				return nil
			}),
		},
		pipeline.Stage{
			Name:    "structural",
			Section: pipeline.SecExtraction,
			Canon: fmt.Sprintf("structural=%v,%v,%v,%v,%v",
				c.Structural.DisableSharedSlots, c.Structural.DisableInstanceInstalls,
				c.Structural.DisableCtorCalls, c.Structural.DisableSizeRule,
				c.Structural.DisablePurecallRule),
			Run: bind(func(ctx context.Context) error {
				res.Structural = structural.Analyze(res.Image, res.Funcs, res.VTables, res.Tracelets, c.Structural)
				countStructural(bus, res.Structural)
				return nil
			}),
		},
		pipeline.Stage{
			Name:    "alphabet",
			Section: pipeline.SecExtraction,
			Run: bind(func(ctx context.Context) error {
				res.internAlphabet()
				bus.Add(obs.CntAlphabet, int64(len(res.Alphabet)))
				return nil
			}),
		},
		pipeline.Stage{
			Name:    "train",
			Section: pipeline.SecModels,
			Canon:   fmt.Sprintf("depth=%d", c.SLMDepth),
			Run: bind(func(ctx context.Context) error {
				if err := res.trainModels(ctx, c); err != nil {
					return err
				}
				bus.Add(obs.CntModels, int64(len(res.Frozen)))
				return nil
			}),
		},
		pipeline.Stage{
			// The evidence stage constructs the scoring backends the
			// hierarchy stage fuses (internal/evidence): provider choice is
			// part of the hierarchy section's behavior, so the stage sits in
			// SecHierarchy, but it carries no canon of its own — the
			// configuration is fingerprinted by hierarchyCanon, which keeps
			// the default (SLM-only) configuration's bytes identical to the
			// pre-provider pipeline and existing snapshots valid.
			Name:    "evidence",
			Section: pipeline.SecHierarchy,
			Run: bind(func(ctx context.Context) error {
				return res.buildEvidence(ctx, c)
			}),
		},
		pipeline.Stage{
			Name:    "hierarchy",
			Section: pipeline.SecHierarchy,
			Canon:   c.hierarchyCanon(),
			Run: bind(func(ctx context.Context) error {
				return res.buildHierarchy(ctx, c)
			}),
		},
		pipeline.Stage{
			Name:    "multiparents",
			Section: pipeline.SecHierarchy,
			Run: bind(func(ctx context.Context) error {
				res.chooseMultiParents()
				bus.Add(obs.CntMultiParents, int64(len(res.MultiParents)))
				return nil
			}),
		},
	)
	if err != nil {
		// The graph is a fixed chain; a validation error here is a
		// programming bug, not an input condition.
		panic(fmt.Sprintf("core: invalid pipeline graph: %v", err))
	}
	return g
}

// hierarchyCanon renders the hierarchy stage's fingerprinted
// configuration. The " sweep=sparse" marker is part of the bytes every
// existing snapshot was written under, so it stays. The " kl=dot" marker
// names the KL kernel (selfEnt minus a dot product, see slm.klEntries):
// the hierarchy section persists Dist bits, so snapshots written under
// the earlier per-term kernel must not warm-restore values a cold run no
// longer computes. A non-default evidence configuration (providers
// beyond the SLM sweep, or a non-unit SLM weight) appends a further
// marker; the default appends nothing. Extraction and model sections are
// unaffected either way — kernel and evidence changes invalidate only
// the hierarchy section.
func (c Config) hierarchyCanon() string {
	canon := fmt.Sprintf("metric=%d rootw=%.17g enumlimit=%d enumeps=%.17g sweep=sparse kl=dot",
		c.Metric, c.RootWeightFactor, c.EnumLimit, c.EnumEps)
	if !c.evidenceDefault() {
		canon += " evidence=" + c.evidenceCanon()
	}
	return canon
}

// countStructural records the structural stage's domain counters: the
// family partition, the surviving candidate edges, and how many ordered
// family-internal pairs the heuristics pruned.
func countStructural(bus *obs.Bus, sr *structural.Result) {
	if bus == nil {
		return
	}
	candidates := int64(0)
	for _, ps := range sr.PossibleParents {
		candidates += int64(len(ps))
	}
	pairs := int64(0)
	for _, fam := range sr.Families {
		n := int64(len(fam))
		pairs += n * (n - 1)
	}
	bus.Add(obs.CntFamilies, int64(len(sr.Families)))
	bus.Add(obs.CntCandidateEdges, candidates)
	bus.Add(obs.CntEdgesPruned, pairs-candidates)
}

// snapshotKey derives the cache key from the stage graph: the image
// content digest plus one fingerprint per pipeline section, each hashing
// exactly the configuration the section's stages depend on. Workers
// appears in no fingerprint — the pipeline's results are identical for
// every worker count.
func (c Config) snapshotKey(img *image.Image) snapshot.Key {
	return snapshot.Key{Digest: img.ContentDigest(), FPs: c.graph(nil).Fingerprints()}
}

// ProbeSnapshot predicts, without running anything, how much of a cached
// snapshot an AnalyzeContext(img, cfg) call could reuse, by reading only
// the snapshot file's header. It returns one of the snapshot reuse levels
// (snapshot.LevelNone .. LevelHierarchy). The probe is advisory — the
// analysis re-validates the full checksummed snapshot on load — but cheap
// enough for an admission scheduler to classify images as warm or cold
// before committing a worker slot.
func ProbeSnapshot(img *image.Image, cfg Config) int {
	if cfg.CacheDir == "" || !cfg.UseSLM {
		return snapshot.LevelNone
	}
	cfg = cfg.withDefaults()
	key := cfg.snapshotKey(img)
	onDisk, err := snapshot.ReadKey(filepath.Join(cfg.CacheDir, key.FileName()))
	if err != nil {
		return snapshot.LevelNone
	}
	return min(key.Usable(&snapshot.Snapshot{Key: onDisk}), cfg.Invalidate.maxLevel())
}

// analyze is the pipeline driver Shared.Analyze runs once the analysis is
// admitted: consult the snapshot cache, restore every section the
// staged-validity chain covers, then execute the stage graph with the
// restored (and disabled) stages skipped, each remaining stage recorded on
// the observer bus. Every fan-out draws its helpers from cfg.pool.
func analyze(ctx context.Context, img *image.Image, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.UseSLM {
		if err := cfg.validateEvidence(); err != nil {
			return nil, err
		}
	}
	bus := cfg.Obs
	if bus != nil {
		// Only an observed run pays for the context plumbing; the nil-bus
		// path leaves ctx untouched.
		ctx = obs.WithBus(ctx, bus)
	}

	// Snapshot lookup: usable level = sections whose fingerprints match,
	// capped by the requested invalidation granularity. Any read or decode
	// failure is a cache miss.
	var snap *snapshot.Snapshot
	level := snapshot.LevelNone
	cachePath := ""
	var key snapshot.Key
	if cfg.CacheDir != "" && cfg.UseSLM {
		h := bus.StageStart("snapshot-load", "cache")
		key = cfg.snapshotKey(img)
		cachePath = filepath.Join(cfg.CacheDir, key.FileName())
		if s, err := snapshot.Load(cachePath); err == nil {
			snap = s
			level = min(key.Usable(s), cfg.Invalidate.maxLevel())
		}
		h.End(nil)
	}
	bus.SetSnapshotReuse(level)

	res := &Result{Image: img, SnapshotReuse: level}

	// Version-diff warm lane: on an exact miss, diff against the nearest
	// prior snapshot of the same image family so unchanged functions,
	// models, and families skip recomputation (see incremental.go). The
	// lane needs at least extraction-level reuse to be allowed.
	if cfg.UseSLM && level == snapshot.LevelNone &&
		cfg.Invalidate.maxLevel() >= snapshot.LevelExtraction &&
		(cfg.IncrementalFrom != "" || cfg.CacheDir != "") {
		h := bus.StageStart("snapshot-diff", "cache")
		if cachePath == "" {
			// No cache directory: the key wasn't derived above, but the
			// lane still needs it to grade the prior's fingerprints.
			key = cfg.snapshotKey(img)
		}
		prior, priorPath, err := res.findPrior(cfg, key)
		h.End(err)
		if err != nil {
			return nil, err
		}
		if prior != nil {
			res.incr = &incrState{prior: prior, key: key, maxLevel: cfg.Invalidate.maxLevel()}
			res.Incremental = &IncrementalStats{PriorPath: priorPath}
		}
	}

	// Restore every section the chain covers; the corresponding stages
	// are then skipped as cached. Funcs stays nil on a restored extraction
	// (documented Result behavior): disassembly is skipped entirely.
	if level >= snapshot.LevelExtraction {
		res.VTables = snap.VTables
		res.Tracelets = snap.Tracelets
		res.Structural = snap.Structural
		res.Alphabet = snap.Alphabet
		// The extraction never reran, so the prior function section (if the
		// file has one) is still exact; carry it into any rewrite.
		res.fnSection = snap.Funcs
	}
	if level >= snapshot.LevelModels {
		res.Frozen = snap.Frozen
	}
	if level >= snapshot.LevelHierarchy {
		res.restoreHierarchy(snap)
	}

	status := func(st pipeline.Stage) obs.StageStatus {
		if !cfg.UseSLM && behavioral[st.Name] {
			return obs.StageOff
		}
		if level >= st.Section.Level() {
			return obs.StageCached
		}
		return obs.StageRan
	}
	if err := cfg.graph(res).Execute(ctx, bus, status); err != nil {
		return nil, err
	}

	if cachePath != "" && level < snapshot.LevelHierarchy {
		h := bus.StageStart("snapshot-write", "cache")
		err := res.writeSnapshot(cachePath, key)
		h.End(err)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
