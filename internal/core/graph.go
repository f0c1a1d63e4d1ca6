package core

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/disasm"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/structural"
	"repro/internal/vtable"
)

// stage is one phase of the §4 chain.
type stage struct {
	// name identifies the stage in reports and traces.
	name string
	// level is the snapshot section the stage's outputs persist under,
	// named by the reuse level it completes: a restore at that level or
	// beyond skips the stage as cached.
	level int
	// behavioral marks the stages that exist only for the full (UseSLM)
	// analysis; under StructuralOnly they are reported as disabled.
	behavioral bool
	run        func(ctx context.Context, res *Result, c Config) error
}

// stages is the analysis in execution order. Each stage reads what the
// stages before it produced, and levels never decrease, so the snapshot's
// staged-validity chain is meaningful:
//
//	extraction   disasm → vtables → tracelets → structural → alphabet
//	models       train (SLM training into the frozen form)
//	hierarchy    evidence → hierarchy (distances + arborescences) → multiparents
var stages = []stage{
	{name: "disasm", level: snapshot.LevelExtraction, run: func(ctx context.Context, res *Result, c Config) error {
		fns, err := disasm.All(res.Image)
		if err != nil {
			return fmt.Errorf("core: disassembly failed: %w", err)
		}
		res.Funcs = fns
		return nil
	}},
	{name: "vtables", level: snapshot.LevelExtraction, run: func(ctx context.Context, res *Result, c Config) error {
		res.VTables = vtable.Discover(res.Image, res.Funcs)
		c.Obs.Add(obs.CntVTables, int64(len(res.VTables)))
		return nil
	}},
	{name: "tracelets", level: snapshot.LevelExtraction, run: func(ctx context.Context, res *Result, c Config) error {
		if err := res.extractTracelets(ctx, c); err != nil {
			return err
		}
		for _, seqs := range res.Tracelets.PerType {
			c.Obs.Add(obs.CntTracelets, int64(len(seqs)))
		}
		for _, seqs := range res.Tracelets.RawPerType {
			c.Obs.Add(obs.CntRawTracelets, int64(len(seqs)))
		}
		return nil
	}},
	{name: "structural", level: snapshot.LevelExtraction, run: func(ctx context.Context, res *Result, c Config) error {
		res.Structural = structural.Analyze(res.Image, res.Funcs, res.VTables, res.Tracelets, c.Structural)
		countStructural(c.Obs, res.Structural)
		return nil
	}},
	{name: "alphabet", level: snapshot.LevelExtraction, behavioral: true, run: func(ctx context.Context, res *Result, c Config) error {
		res.internAlphabet()
		c.Obs.Add(obs.CntAlphabet, int64(len(res.Alphabet)))
		return nil
	}},
	{name: "train", level: snapshot.LevelModels, behavioral: true, run: func(ctx context.Context, res *Result, c Config) error {
		if err := res.trainModels(ctx, c); err != nil {
			return err
		}
		c.Obs.Add(obs.CntModels, int64(len(res.Frozen)))
		return nil
	}},
	// The evidence stage constructs the scoring backends the hierarchy
	// stage fuses (internal/evidence); provider choice is fingerprinted
	// with the hierarchy section by hierarchyCanon.
	{name: "evidence", level: snapshot.LevelHierarchy, behavioral: true, run: func(ctx context.Context, res *Result, c Config) error {
		return res.buildEvidence(ctx, c)
	}},
	{name: "hierarchy", level: snapshot.LevelHierarchy, behavioral: true, run: func(ctx context.Context, res *Result, c Config) error {
		return res.buildHierarchy(ctx, c)
	}},
	{name: "multiparents", level: snapshot.LevelHierarchy, behavioral: true, run: func(ctx context.Context, res *Result, c Config) error {
		res.chooseMultiParents()
		c.Obs.Add(obs.CntMultiParents, int64(len(res.MultiParents)))
		return nil
	}},
}

// runStages executes list in order on res, each stage recorded on c.Obs
// (nil: free). A behavioral stage of a structural-only run is recorded
// as off and skipped; so is, as cached, a stage whose section the
// snapshot restore at level already covers. The first stage error aborts
// the run.
func runStages(ctx context.Context, list []stage, res *Result, c Config, level int) error {
	bus := c.Obs
	for _, st := range list {
		section := snapshot.Tag(st.level)
		switch {
		case st.behavioral && !c.UseSLM:
			bus.StageSkipped(st.name, section, obs.StageOff)
		case level >= st.level:
			bus.StageSkipped(st.name, section, obs.StageCached)
		default:
			h := bus.StageStart(st.name, section)
			err := st.run(ctx, res, c)
			h.End(err)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// fingerprints derives the snapshot key's configuration half: one canon
// per section, each rendering exactly the configuration the section's
// stages depend on. Worker counts and observers never appear — they
// cannot change results. The canon strings are load-bearing, since every
// existing snapshot was keyed with them. c must already have defaults
// resolved (withDefaults).
func (c Config) fingerprints() [snapshot.NumSections][32]byte {
	tr := c.Trace.WithDefaults()
	return snapshot.Fingerprints([snapshot.NumSections]string{
		fmt.Sprintf("paths=%d steps=%d unroll=%d window=%d tracelen=%d structural=%v,%v,%v,%v,%v",
			tr.MaxPaths, tr.MaxSteps, tr.MaxUnroll, tr.Window, tr.MaxTraceLen,
			c.Structural.DisableSharedSlots, c.Structural.DisableInstanceInstalls,
			c.Structural.DisableCtorCalls, c.Structural.DisableSizeRule,
			c.Structural.DisablePurecallRule),
		fmt.Sprintf("depth=%d", c.SLMDepth),
		c.hierarchyCanon(),
	})
}

// hierarchyCanon renders the hierarchy section's fingerprinted
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
	canon := fmt.Sprintf("metric=%d rootw=%.17g enumeps=%.17g sweep=sparse kl=dot",
		c.Metric, c.RootWeightFactor, c.EnumEps)
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

// snapshotKey derives the cache key: the image content digest plus the
// configuration fingerprint chain.
func (c Config) snapshotKey(img *image.Image) snapshot.Key {
	return snapshot.Key{Digest: img.ContentDigest(), FPs: c.fingerprints()}
}

// ProbeSnapshot predicts, without running anything, how much of a cached
// snapshot an AnalyzeContext(img, cfg) call could reuse, by reading only
// the snapshot file's header. It returns one of the snapshot reuse levels
// (snapshot.LevelNone .. LevelHierarchy). The probe is advisory — the
// analysis re-validates the full checksummed snapshot on load — but cheap
// enough for an admission scheduler to classify images as warm or cold
// before committing a worker slot.
func ProbeSnapshot(img *image.Image, cfg Config) int {
	if cfg.CacheDir == "" {
		return snapshot.LevelNone
	}
	level, _ := probe(img, cfg.withDefaults())
	return level
}

// probe is ProbeSnapshot for a cfg with defaults already resolved. It also
// returns the snapshot key it derived, so the analysis it admits does not
// digest the image again. The key is derived only when the analysis
// needs one — a cache to consult or a prior to diff against — and is the
// zero Key otherwise.
func probe(img *image.Image, cfg Config) (int, snapshot.Key) {
	if !cfg.UseSLM || (cfg.CacheDir == "" && cfg.IncrementalFrom == "") {
		return snapshot.LevelNone, snapshot.Key{}
	}
	key := cfg.snapshotKey(img)
	if cfg.CacheDir == "" {
		return snapshot.LevelNone, key
	}
	h, err := snapshot.ReadHeader(filepath.Join(cfg.CacheDir, key.FileName()))
	if err != nil {
		return snapshot.LevelNone, key
	}
	return key.Usable(&snapshot.Snapshot{Key: h.Key}), key
}

// analyze is the driver Shared.Analyze runs once the analysis is
// admitted: consult the snapshot cache, restore every section the
// staged-validity chain covers, then run the stages with the restored
// (and disabled) ones skipped, each remaining stage recorded on the
// observer bus. Every fan-out draws its helpers from cfg.pool. cfg has
// its defaults resolved, and key is the one probe derived for it.
func analyze(ctx context.Context, img *image.Image, cfg Config, key snapshot.Key) (*Result, error) {
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

	// Snapshot lookup: usable level = sections whose fingerprints match.
	// Any read or decode failure is a cache miss.
	var snap *snapshot.Snapshot
	level := snapshot.LevelNone
	cachePath := ""
	if cfg.CacheDir != "" && cfg.UseSLM {
		h := bus.StageStart("snapshot-load", "cache")
		cachePath = filepath.Join(cfg.CacheDir, key.FileName())
		if s, err := snapshot.Load(cachePath); err == nil {
			snap = s
			level = key.Usable(s)
		}
		h.End(nil)
	}
	bus.SetSnapshotReuse(level)

	res := &Result{Image: img, SnapshotReuse: level}

	// Version-diff warm lane: on an exact miss, diff against the nearest
	// prior snapshot of the same image family so unchanged functions,
	// models, and families skip recomputation (see incremental.go).
	if cfg.UseSLM && level == snapshot.LevelNone &&
		(cfg.IncrementalFrom != "" || cfg.CacheDir != "") {
		h := bus.StageStart("snapshot-diff", "cache")
		prior, priorPath, err := res.findPrior(cfg, key)
		h.End(err)
		if err != nil {
			return nil, err
		}
		if prior != nil {
			res.incr = &incrState{prior: prior, key: key}
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

	if err := runStages(ctx, stages, res, cfg, level); err != nil {
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
