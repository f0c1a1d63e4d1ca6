package core

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/disasm"
	"repro/internal/evidence/subtype"
	"repro/internal/image"
	"repro/internal/objtrace"
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
	// named by the reuse level it completes; reports and traces tag the
	// stage with that section.
	level int
	// behavioral marks the stages that exist only for the full (UseSLM)
	// analysis; under StructuralOnly they are reported as disabled.
	behavioral bool
	run        func(ctx context.Context, res *Result, c Config) error
}

// stages is the analysis in execution order. Each stage reads what the
// stages before it produced, and levels never decrease, so the stages
// follow the snapshot's section chain:
//
//	extraction   disasm → vtables → tracelets → structural → alphabet
//	models       train (SLM training into the frozen form)
//	hierarchy    hierarchy (edge scores + arborescences) → multiparents
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
		res.Structural = structural.Analyze(res.Image, res.Funcs, res.VTables, res.Tracelets)
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
// as off and skipped; on a warm run every other stage is recorded as
// cached and skipped, since the snapshot restored its outputs. The first
// stage error aborts the run.
func runStages(ctx context.Context, list []stage, res *Result, c Config, warm bool) error {
	bus := c.Obs
	for _, st := range list {
		section := snapshot.Tag(st.level)
		switch {
		case st.behavioral && !c.UseSLM:
			bus.StageSkipped(st.name, section, obs.StageOff)
		case warm:
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
// existing snapshot was keyed with them: the extract canon still renders
// objtrace's fixed bounds, and the five structural heuristics that could
// once be switched off as "structural=false,false,false,false,false". c
// must already have defaults resolved (withDefaults).
func (c Config) fingerprints() [snapshot.NumSections][32]byte {
	return snapshot.Fingerprints([snapshot.NumSections]string{
		fmt.Sprintf("paths=%d steps=%d unroll=%d window=%d tracelen=%d structural=false,false,false,false,false",
			objtrace.MaxPaths, objtrace.MaxSteps, objtrace.MaxUnroll, c.Window, objtrace.MaxTraceLen),
		fmt.Sprintf("depth=%d", c.SLMDepth),
		c.hierarchyCanon(),
	})
}

// hierarchyCanon renders the hierarchy section's fingerprinted
// configuration. The root weight and the co-optimal epsilon are
// constants, and the " sweep=sparse" marker no longer selects anything,
// but all three are part of the bytes every existing snapshot was written
// under, so they stay. The " kl=dot" marker
// names the KL kernel (selfEnt minus a dot product, see slm.klEntries):
// the hierarchy section persists Dist bits, so snapshots written under
// the earlier per-term kernel must not warm-restore values a cold run no
// longer computes. The fused evidence configuration (Subtype) appends
// a further marker; the paper's configuration appends nothing.
// Extraction and model sections are unaffected either way — kernel and
// evidence changes invalidate only the hierarchy section.
func (c Config) hierarchyCanon() string {
	canon := fmt.Sprintf("metric=%d rootw=%.17g enumeps=%.17g sweep=sparse kl=dot",
		c.Metric, rootWeightFactor, enumEps)
	if c.Subtype {
		canon += " evidence=" + evidenceCanon()
	}
	return canon
}

// evidenceCanon renders the fused evidence configuration for the
// hierarchy-section fingerprint: each scorer's name with its fusion
// weight, plus the subtype scorer's fixed term weights. The bytes are the
// ones every fused snapshot was keyed with.
func evidenceCanon() string {
	return fmt.Sprintf("slm:1,subtype:%.17g{slot=%.17g prox=%.17g flow=%.17g call=%.17g root=%.17g}",
		float64(subtype.DefaultWeight), subtype.SlotWeight, subtype.ProxWeight,
		subtype.FlowWeight, subtype.CallWeight, subtype.RootFactor)
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

// ProbeSnapshot predicts, without running anything, whether an
// AnalyzeContext(img, cfg) call would restore warm from the snapshot
// cache, by reading only the snapshot file's header: the slot's key must
// equal the run's. The probe is advisory — the analysis re-validates the
// full checksummed snapshot on load — but cheap enough for an admission
// scheduler to classify images as warm or cold before committing a
// worker slot.
func ProbeSnapshot(img *image.Image, cfg Config) bool {
	if cfg.CacheDir == "" {
		return false
	}
	warm, _ := probe(img, cfg.withDefaults())
	return warm
}

// probe is ProbeSnapshot for a cfg with defaults already resolved. It also
// returns the snapshot key it derived, so the analysis it admits does not
// digest the image again. The key is derived only when the analysis
// needs one — a cache to consult or a prior to diff against — and is the
// zero Key otherwise.
func probe(img *image.Image, cfg Config) (bool, snapshot.Key) {
	if !cfg.UseSLM || (cfg.CacheDir == "" && cfg.IncrementalFrom == "") {
		return false, snapshot.Key{}
	}
	key := cfg.snapshotKey(img)
	if cfg.CacheDir == "" {
		return false, key
	}
	h, err := snapshot.ReadHeader(filepath.Join(cfg.CacheDir, key.FileName()))
	return err == nil && h.Key == key, key
}

// analyze is the driver Shared.Analyze runs once the analysis is
// admitted. It applies the one reuse rule: a cached slot whose key
// equals the run's restores warm and every stage is skipped as cached;
// any other usable snapshot — the image's own slot under a changed
// configuration first, then IncrementalFrom or a cached sibling version —
// becomes the prior of the version-diff lane (incremental.go), which
// reuses whatever its gates certify. The stages that run are recorded on
// the observer bus. Every fan-out draws its helpers from cfg.pool. cfg
// has its defaults resolved, and key is the one probe derived for it.
func analyze(ctx context.Context, img *image.Image, cfg Config, key snapshot.Key) (*Result, error) {
	bus := cfg.Obs
	if bus != nil {
		// Only an observed run pays for the context plumbing; the nil-bus
		// path leaves ctx untouched.
		ctx = obs.WithBus(ctx, bus)
	}

	// Snapshot lookup. Any read or decode failure is a cache miss.
	var slot *snapshot.Snapshot
	cachePath := ""
	if cfg.CacheDir != "" && cfg.UseSLM {
		h := bus.StageStart("snapshot-load", "cache")
		cachePath = filepath.Join(cfg.CacheDir, key.FileName())
		if s, err := snapshot.Load(cachePath); err == nil {
			slot = s
		}
		h.End(nil)
	}
	warm := slot != nil && slot.Key == key
	res := &Result{Image: img, SnapshotReuse: snapshot.LevelNone}
	if warm {
		res.restore(slot)
	} else if cfg.UseSLM && (cfg.IncrementalFrom != "" || cfg.CacheDir != "") {
		h := bus.StageStart("snapshot-diff", "cache")
		prior, err := res.findPrior(cfg, key, slot)
		h.End(err)
		if err != nil {
			return nil, err
		}
		if prior != nil {
			res.incr = &incrState{prior: prior, key: key}
			res.Incremental = &IncrementalStats{}
		}
	}
	bus.SetSnapshotReuse(res.SnapshotReuse)

	if err := runStages(ctx, stages, res, cfg, warm); err != nil {
		return nil, err
	}

	if cachePath != "" && !warm {
		h := bus.StageStart("snapshot-write", "cache")
		err := res.writeSnapshot(cachePath, key)
		h.End(err)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
