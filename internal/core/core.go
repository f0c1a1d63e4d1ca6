// Package core implements Rock's end-to-end pipeline (§4): given a
// stripped binary image it discovers the binary types (vtables), runs the
// structural analysis to partition them into families and prune impossible
// parents, extracts object tracelets, trains one statistical language model
// per type, weighs every surviving candidate child→parent edge with the
// Kullback–Leibler divergence between the types' SLMs, and finds the most
// likely hierarchy per family as a minimum-weight spanning arborescence,
// handling co-optimal solutions with the paper's majority-vote heuristic.
//
// The pipeline itself is one fixed stage list (graph.go): each stage names
// the snapshot section it persists under (internal/snapshot owns the
// section chain), and analyze is a short driver that either restores a
// cached snapshot whose key equals the run's or runs every stage — on the
// version-diff lane (incremental.go) when another usable snapshot exists
// — optionally recorded on an observer bus (internal/obs). graph.go also
// renders the per-section configuration canons the snapshot key hashes.
// Every analysis runs on a Shared (shared.go), the one resource model;
// AnalyzeContext runs one image on a Shared of its own. This file holds
// the configuration, the Result type, and the per-stage algorithm bodies
// the stages call.
package core

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"sort"
	"sync"
	"time"

	"repro/internal/arborescence"
	"repro/internal/evidence/subtype"
	"repro/internal/hierarchy"
	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/objtrace"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/slm"
	"repro/internal/snapshot"
	"repro/internal/structural"
	"repro/internal/vtable"
)

// Config parameterizes the pipeline.
type Config struct {
	// UseSLM enables the behavioral analysis. When false only the
	// structural possibleParent relation is produced (the paper's
	// "without SLMs" baseline).
	UseSLM bool
	// SLMDepth is the maximum SLM order D (the paper's example uses 2).
	SLMDepth int
	// Metric selects the pairwise distance (DKL by default; the JS variants
	// exist for the §6.4 ablation).
	Metric slm.Metric
	// Window is the tracelet length bound (§3.2; the paper uses 7). 0
	// selects 7.
	Window int
	// Subtype fuses the constraint-based subtyping scores
	// (internal/evidence/subtype) into the SLM/KL sweep at
	// subtype.DefaultWeight. False is the paper's configuration: the
	// sweep alone. Setting it changes the hierarchy-section snapshot
	// fingerprint (and only that section).
	Subtype bool
	// Workers bounds the analysis's concurrency: AnalyzeContext runs on a
	// fresh Shared of this capacity, so per-function tracelet extraction,
	// SLM training, per-family pairwise distance matrices, and per-family
	// arborescence solving — nested fan-outs included — together never
	// run more than Workers goroutines. 0 (the default) selects
	// runtime.GOMAXPROCS(0); 1 runs the pipeline fully serially.
	// Shared.Analyze ignores it: the Shared's capacity is the bound. The
	// result is identical for every value — all parallel stages write to
	// index-owned slots and are merged in a fixed order.
	Workers int
	// CacheDir, when non-empty, enables the content-addressed snapshot
	// cache (internal/snapshot): one slot per image in this directory,
	// keyed by the image's content digest and per-section config
	// fingerprints. A slot whose key equals the run's restores warm; any
	// other usable slot is the version-diff lane's prior (IncrementalFrom).
	// The directory must exist. Caching applies only to full (UseSLM)
	// analyses.
	CacheDir string
	// IncrementalFrom, when non-empty, names a snapshot file of a prior
	// version of this image to diff against when the exact snapshot
	// misses and the image's own cache slot is no usable prior: unchanged
	// functions (by image.FunctionDigest) reuse their extraction bundles,
	// types whose training input is unchanged reuse their frozen models,
	// and families untouched by any retrained type restore verbatim. The
	// file must load (an unreadable or corrupt file is an error), but a
	// snapshot in another format version, or one written under another
	// extraction fingerprint, silently degrades to a cold run. When empty
	// but CacheDir is set, the lane auto-discovers the nearest prior
	// snapshot of the same image family (matched by hashed module name)
	// in the cache directory.
	IncrementalFrom string
	// Obs, when non-nil, records the run on an observer bus: per-stage
	// wall time, allocation estimates, cache-hit attribution, and domain
	// counters, plus trace spans when the bus carries a Trace. Results are
	// unaffected, and a nil Obs costs nothing on the hot path.
	Obs *obs.Bus

	// pool is set by Shared.Analyze: every fan-out draws its helpers from
	// it. Results are unaffected.
	pool *pool.Shared
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		UseSLM:   true,
		SLMDepth: 2,
		Metric:   slm.MetricKL,
		Window:   7,
	}
}

// enumEps is the near-tie tolerance of the co-optimal structure
// (arborescence.CoOptimal): an edge is tight iff its reduced cost is at
// most enumEps, and a contracted set binds iff its dual exceeds it.
const enumEps = 1e-9

// rootWeightFactor scales the virtual-root weight relative to the
// family's largest pairwise distance; it exceeds 1 so that being a derived
// type is always preferred (Heuristic 4.1). The hierarchy canon renders it.
const rootWeightFactor float64 = 8

// Fan-out grains for the SLM/KL sweep's chunked fan-outs
// (pool.ForEachChunk): each claimed range must amortize the shared index
// counter over enough work without starving workers on small families.
// Grain choice never affects scores (every slot is index-owned).
const (
	// modelGrain groups word-distribution derivations, one
	// slm.DistanceCalculator.Precompute per member; each derivation reads
	// the family's gram table, interned before the fan-out.
	modelGrain = 8
	// pairGrain groups admissible-pair divergence reductions.
	pairGrain = 32
)

// FamilyResult is the per-family outcome.
type FamilyResult struct {
	// Types lists the family members (vtable addresses), ascending.
	Types []uint64
	// Weight is the minimum arborescence weight.
	Weight float64
	// Survivors describes the co-optimal hierarchies that survive majority
	// voting, over the family graph: node 0 is the virtual root and node
	// i+1 is Types[i]; a type whose parent is node 0 is a root. The
	// hierarchy in Result.Hierarchy is Edmonds' optimum when it survives,
	// else the first survivor Survivors.Each streams.
	Survivors arborescence.CoOptimal
}

// Result is the pipeline output.
type Result struct {
	Image *image.Image
	// Funcs holds the disassembled functions. It is nil on a warm run
	// (disassembly was skipped).
	Funcs      []*ir.Function
	VTables    []*vtable.VTable
	Structural *structural.Result
	Tracelets  *objtrace.Result
	// Frozen maps each type to its SLM, trained straight into the flat
	// trie that the distance sweep queries and snapshots persist (UseSLM
	// only).
	Frozen map[uint64]*slm.Frozen
	// Dist holds the pairwise distances the sweep computed, one per
	// structurally admissible [parent, child] pair (UseSLM only).
	Dist map[[2]uint64]float64
	// Families holds the per-family arborescence outcomes (UseSLM only).
	Families []FamilyResult
	// Hierarchy is the reconstructed forest using the first surviving
	// arborescence of each family (UseSLM only).
	Hierarchy *hierarchy.Forest
	// MultiParents maps multiple-inheritance types to their chosen parent
	// sets (§5.3): as many parents as vtable installs were observed on
	// their instances, ranked by distance.
	MultiParents map[uint64][]uint64
	// Alphabet is the interned event alphabet (symbol -> event).
	Alphabet []objtrace.Event
	// SnapshotReuse is snapshot.LevelHierarchy when the run restored warm
	// from a cached snapshot whose key equals the run's, and
	// snapshot.LevelNone otherwise — on the version-diff lane too, whose
	// reuse Incremental reports. Always LevelNone without a CacheDir.
	SnapshotReuse int
	// Incremental reports the version-diff warm lane's reuse when it
	// engaged (a prior snapshot was diffed against); nil otherwise.
	// The lane never changes the Result — every reused artifact is
	// deep-equal to what recomputation would produce.
	Incremental *IncrementalStats

	// enc is the analysis's encoded tracelet table (encodeTracelets), the
	// one place a tracelet is turned into symbols.
	enc map[uint64]encoded
	// words memoizes each type's distinct encoded tracelets with their
	// multiplicities (buildWordsFor): the word sets the distance sweep
	// measures over and the weighted input training reads.
	words map[uint64]wordSet
	// incr carries the prior snapshot the incremental lane diffs against.
	incr *incrState
	// fnDigests memoizes image.FunctionDigests for this run.
	fnDigests [][32]byte
	// fnExts holds the per-function extraction bundles when the tracelets
	// stage ran (fresh or reused); they become the snapshot's function
	// section.
	fnExts []*objtrace.FnExtraction
	// fnCtxDigest is objtrace.ContextDigest for this run's extraction.
	fnCtxDigest [32]byte
	// typeKeys memoizes each type's training-input digest (TypeKey).
	typeKeys map[uint64][32]byte
	// affected, when non-nil, is the set of types whose tracelet lists may
	// differ from the diffed-against prior run (computed by the delta
	// merge). Types outside it provably have byte-identical lists, which
	// licenses copying their prior TypeKeys without re-hashing. Nil means
	// no delta information: every type must be treated as affected.
	affected map[uint64]bool
}

// IncrementalStats attributes the incremental lane's reuse.
type IncrementalStats struct {
	// FnHits/FnMisses count functions whose extraction bundle was reused
	// vs re-executed.
	FnHits, FnMisses int
	// TypesRetrained counts the types whose models were retrained; the
	// rest adopted the prior's frozen models.
	TypesRetrained int
	// FamiliesResolved counts the families re-solved; the rest were
	// restored verbatim.
	FamiliesResolved int
}

// TypeNamer returns a display-name function backed by metadata when
// available (names are never used by the analysis itself).
func TypeNamer(meta *image.Metadata) func(uint64) string {
	return func(vt uint64) string {
		if meta != nil {
			if tm := meta.TypeByVTable(vt); tm != nil {
				if tm.Secondary {
					return tm.Name + "(secondary)"
				}
				return tm.Name
			}
		}
		return fmt.Sprintf("vt_0x%x", vt)
	}
}

// Analyze runs the full pipeline on a stripped image. With a CacheDir it
// first consults the image's slot in the content-addressed snapshot
// cache: a slot whose key equals the run's restores every derived
// artifact and recomputes nothing; any other slot whose extraction
// fingerprint matches is the prior the version-diff lane diffs against
// (see Config.CacheDir and incremental.go).
func Analyze(img *image.Image, cfg Config) (*Result, error) {
	return AnalyzeContext(context.Background(), img, cfg)
}

// AnalyzeContext is Analyze with cancellation: when ctx is canceled,
// every fan-out stops issuing new work, the in-flight units drain, and the
// analysis returns ctx.Err() promptly without writing a snapshot. It runs
// the image on a Shared of its own with cfg.Workers capacity, so the
// analysis, helpers included, never runs more than cfg.Workers goroutines.
func AnalyzeContext(ctx context.Context, img *image.Image, cfg Config) (*Result, error) {
	res, _, err := NewShared(cfg.Workers).Analyze(ctx, img, cfg)
	return res, err
}

// withDefaults resolves the zero-value Config fields exactly as Analyze
// does, so probes (ProbeSnapshot) and the analysis itself derive the same
// snapshot key.
func (c Config) withDefaults() Config {
	if c.SLMDepth <= 0 {
		c.SLMDepth = 2
	}
	if c.Window <= 0 {
		c.Window = 7
	}
	return c
}

// restore adopts every section of a snapshot whose key equals the run's:
// a warm run. Funcs stays nil (documented Result behavior), since
// disassembly is skipped entirely.
func (r *Result) restore(snap *snapshot.Snapshot) {
	r.SnapshotReuse = snapshot.LevelHierarchy
	r.VTables = snap.VTables
	r.Tracelets = snap.Tracelets
	r.Structural = snap.Structural
	r.Alphabet = snap.Alphabet
	r.Frozen = snap.Frozen
	r.Dist = snap.Dist
	r.Families = make([]FamilyResult, len(snap.Families))
	for i, fr := range snap.Families {
		r.Families[i] = FamilyResult{Types: fr.Types, Weight: fr.Weight, Survivors: fr.Survivors}
	}
	var all []uint64
	for _, v := range r.VTables {
		all = append(all, v.Addr)
	}
	r.Hierarchy = hierarchy.NewForest(all)
	children := make([]uint64, 0, len(snap.Parents))
	for c := range snap.Parents {
		children = append(children, c)
	}
	sort.Slice(children, func(i, j int) bool { return children[i] < children[j] })
	for _, c := range children {
		// The edges come from a validated arborescence; re-adding them to a
		// fresh forest cannot fail, and a corrupted-beyond-validation edge
		// set would only drop edges, never crash.
		_ = r.Hierarchy.SetParent(c, snap.Parents[c])
	}
	r.MultiParents = snap.MultiParents
}

// writeSnapshot persists the run's derived artifacts under the key.
func (r *Result) writeSnapshot(path string, key snapshot.Key) error {
	snap := &snapshot.Snapshot{
		Key:          key,
		NameHash:     snapshot.HashName(r.Image.Name),
		Funcs:        r.buildFnSection(),
		Alphabet:     r.Alphabet,
		VTables:      r.VTables,
		Tracelets:    r.Tracelets,
		Structural:   r.Structural,
		Frozen:       r.Frozen,
		Dist:         r.Dist,
		Families:     make([]snapshot.Family, len(r.Families)),
		Parents:      map[uint64]uint64{},
		MultiParents: r.MultiParents,
	}
	for i, fr := range r.Families {
		snap.Families[i] = snapshot.Family{Types: fr.Types, Weight: fr.Weight, Survivors: fr.Survivors}
	}
	for _, t := range r.Hierarchy.Nodes() {
		if p, ok := r.Hierarchy.Parent(t); ok {
			snap.Parents[t] = p
		}
	}
	if err := snap.WriteFile(path); err != nil {
		return fmt.Errorf("core: writing snapshot: %w", err)
	}
	return nil
}

// encoded is one type's tracelets as symbols: tracelet i is
// syms[ends[i-1]:ends[i]] (from 0 for i = 0). syms and ends are windows
// of the analysis-wide arenas encodeTracelets fills.
type encoded struct {
	syms []int32
	ends []int32
}

// wordSet is one type's distinct encoded tracelets in first-occurrence
// order, each a window of the type's encoded symbols, and how many of the
// type's tracelets each one stands for.
type wordSet struct {
	words  [][]int32
	counts []int32
}

// internAlphabet assigns integer symbols to every distinct event observed
// anywhere in the binary, so that all SLMs share one alphabet, and in the
// same pass encodes every tracelet (encodeTracelets); then it memoizes
// each type's word set (buildWords).
func (r *Result) internAlphabet() {
	r.encodeTracelets()
	// On the incremental lane word sets are built lazily: restored
	// families never read theirs and unchanged models never train, so
	// deduplicating every type here would undo part of the lane's savings.
	if r.incr == nil {
		r.buildWords()
	}
}

// encodeTracelets builds the encoded tracelet table in one pass over the
// types in ascending address order, each type's tracelets in order, and
// each tracelet's events. An event missing from r.Alphabet is interned
// the first time it is seen, so the alphabet is numbered in encounter
// order; after a snapshot restored the alphabet, the same pass finds
// every event already numbered. Every other consumer of symbols — word
// sets, training and TypeKeys — reads the table, so no tracelet is
// encoded twice. Idempotent; not safe to call concurrently.
func (r *Result) encodeTracelets() {
	if r.enc != nil {
		return
	}
	types := make([]uint64, 0, len(r.Tracelets.PerType))
	nsyms, ntls := 0, 0
	for t, tls := range r.Tracelets.PerType {
		types = append(types, t)
		ntls += len(tls)
		for _, tl := range tls {
			nsyms += len(tl)
		}
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	tab := objtrace.NewEventTable(r.Alphabet)
	syms := make([]int32, 0, nsyms)
	ends := make([]int32, 0, ntls)
	r.enc = make(map[uint64]encoded, len(types))
	for _, t := range types {
		s0, e0 := len(syms), len(ends)
		for _, tl := range r.Tracelets.PerType[t] {
			for _, e := range tl {
				syms = append(syms, tab.Intern(e))
			}
			ends = append(ends, int32(len(syms)-s0))
		}
		r.enc[t] = encoded{syms: syms[s0:len(syms):len(syms)], ends: ends[e0:len(ends):len(ends)]}
	}
	if tab.Len() > len(r.Alphabet) {
		r.Alphabet = tab.Events()
	}
}

// buildWords memoizes the word set of every type, so each family's word
// set union reads them instead of deduplicating per family (and on warm
// snapshot runs they are built only when a stage needs them). Idempotent.
func (r *Result) buildWords() {
	addrs := make([]uint64, len(r.VTables))
	for i, v := range r.VTables {
		addrs[i] = v.Addr
	}
	r.buildWordsFor(addrs)
}

// buildWordsFor fills the word-set memo for the given types, skipping any
// already built: each type's encoded tracelets, deduplicated by content,
// as windows of the table with no copy. Not safe to call concurrently
// with itself or with readers — callers build on the serial path before
// fanning out.
func (r *Result) buildWordsFor(types []uint64) {
	r.encodeTracelets()
	if r.words == nil {
		r.words = make(map[uint64]wordSet, len(types))
	}
	seen := slm.NewWindowTable(0)
	for _, t := range types {
		if _, ok := r.words[t]; ok {
			continue
		}
		enc := r.enc[t]
		seen.Reset(len(enc.ends))
		var ws wordSet
		start := int32(0)
		for _, end := range enc.ends {
			w := enc.syms[start:end:end]
			start = end
			if i, added := seen.Intern(w); !added {
				ws.counts[i]++
				continue
			}
			ws.words = append(ws.words, w)
			ws.counts = append(ws.counts, 1)
		}
		r.words[t] = ws
	}
}

// SymbolName renders symbol s in the paper's event notation.
func (r *Result) SymbolName(s int) string {
	if s >= 0 && s < len(r.Alphabet) {
		return r.Alphabet[s].String()
	}
	return fmt.Sprintf("sym%d", s)
}

// trainers recycles SLM trainers, and so their buffers, across types and
// analyses.
var trainers = sync.Pool{New: func() any { return new(slm.Trainer) }}

// trainModels trains one SLM per discovered type on TT(t), straight into
// its frozen query form. PPM-C counts add up, so each type trains on its
// distinct words, each weighted by its multiplicity (slm.Trainer.AddN).
// Types are independent (each model sees only its own tracelets), so
// training fans out over the worker pool; models land in index-owned
// slots and the maps are assembled serially. On the incremental lane,
// types whose training input is provably unchanged (TypeKey match) adopt
// the prior frozen model and skip training.
func (r *Result) trainModels(ctx context.Context, cfg Config) error {
	ctx = obs.WithRegion(ctx, cfg.Obs, "train")
	reuse := r.reusableModels()
	train := make([]uint64, 0, len(r.VTables)-len(reuse))
	for _, v := range r.VTables {
		if reuse[v.Addr] == nil {
			train = append(train, v.Addr)
		}
	}
	r.buildWordsFor(train)
	frozen := make([]*slm.Frozen, len(r.VTables))
	if err := pool.ForEach(ctx, cfg.pool, len(r.VTables), func(i int) {
		if f := reuse[r.VTables[i].Addr]; f != nil {
			frozen[i] = f
			return
		}
		tr := trainers.Get().(*slm.Trainer)
		tr.Reset(cfg.SLMDepth, len(r.Alphabet))
		ws := r.words[r.VTables[i].Addr]
		for j, w := range ws.words {
			tr.AddN(w, int(ws.counts[j]))
		}
		frozen[i] = tr.Build()
		trainers.Put(tr)
	}); err != nil {
		return err
	}
	r.Frozen = make(map[uint64]*slm.Frozen, len(r.VTables))
	for i, v := range r.VTables {
		r.Frozen[v.Addr] = frozen[i]
	}
	if cfg.Obs != nil {
		words := 0
		for _, t := range train {
			words += len(r.words[t].words)
		}
		cfg.Obs.Add(obs.CntTrainWords, int64(words))
	}
	if r.Incremental != nil {
		r.Incremental.TypesRetrained = len(r.VTables) - len(reuse)
		cfg.Obs.Add(obs.CntTypesRetrained, int64(r.Incremental.TypesRetrained))
	}
	return nil
}

// FamilyWords returns the word set the distance sweep measures family
// fam over: the members' distinct encoded tracelets, unioned in member
// order. It builds the members' word sets where the analysis did not, so
// it must not run concurrently with other calls on r.
func (r *Result) FamilyWords(fam []uint64) [][]int32 {
	r.buildWordsFor(fam)
	return r.familyWords(fam)
}

// familyWords returns the union of distinct tracelets across all family
// members, drawn from the per-type memo (buildWords) so no tracelet is
// encoded more than once per analysis. Every pairwise distance within the
// family is measured over this one word set: the algorithm only needs a
// ranking over candidate parents (Remark 4.1), and ranking distances
// measured over differing word sets would not be comparable.
func (r *Result) familyWords(fam []uint64) [][]int32 {
	n := 0
	for _, t := range fam {
		n += len(r.words[t].words)
	}
	tab := slm.NewWindowTable(n)
	for _, t := range fam {
		for _, w := range r.words[t].words {
			tab.Intern(w)
		}
	}
	return tab.Windows()
}

// familyOutcome is the result of analyzing one family in isolation.
type familyOutcome struct {
	fr FamilyResult
	// parents is the family's hierarchy, child→parent.
	parents map[uint64]uint64
	dist    map[[2]uint64]float64
	err     error
}

// familyHook, when non-nil, receives every family graph before it is
// solved: the family's types and the edges over its family graph.
var familyHook func(types []uint64, edges []arborescence.Edge, eps float64)

// SetFamilyHook installs f as the family hook (nil removes it). It is a
// test seam: tests capture the pipeline's family graphs through it, or
// make a family's solve fail the way a bug would. It must not be called
// while analyses run.
func SetFamilyHook(f func(types []uint64, edges []arborescence.Edge, eps float64)) {
	familyHook = f
}

// buildHierarchy runs the per-family arborescence step. Families are
// mutually independent (each one's word set, distance matrix, and
// arborescence depend only on its own members), so they are analyzed
// concurrently into index-owned slots; the outcomes are merged in family
// order, making the merged Result identical to a serial run.
func (r *Result) buildHierarchy(ctx context.Context, cfg Config) error {
	ctx = obs.WithRegion(ctx, cfg.Obs, "hierarchy")
	r.Dist = map[[2]uint64]float64{}

	var all []uint64
	for _, v := range r.VTables {
		all = append(all, v.Addr)
	}
	r.Hierarchy = hierarchy.NewForest(all)

	// Incremental lane: restore provably-unchanged families verbatim
	// before the fan-out (cheap map lookups, done serially so the counters
	// need no atomics); only the rest are re-solved. Word sets are then
	// encoded serially for exactly the types the re-solved families read
	// (restored families never touch theirs).
	outs := make([]*familyOutcome, len(r.Structural.Families))
	restored := r.restoreFamilies(outs)
	if r.Incremental != nil {
		r.Incremental.FamiliesResolved = len(outs) - restored
		cfg.Obs.Add(obs.CntFamiliesResolved, int64(r.Incremental.FamiliesResolved))
	}
	var solving []uint64
	for i, fam := range r.Structural.Families {
		if outs[i] == nil {
			solving = append(solving, fam...)
		}
	}
	r.buildWordsFor(solving)
	// The subtype scorer indexes the structural observations once per
	// analysis, on the shared pool, before the family fan-out reads it.
	var sub *subtype.Scorer
	if cfg.Subtype {
		var err error
		sub, err = subtype.New(ctx, subtype.Image{
			VTables:     r.VTables,
			Purecall:    r.Structural.Purecall,
			Structs:     r.Tracelets.Structs,
			InstallerOf: r.Structural.InstallerOf,
			FnVTables:   r.Tracelets.FnVTables,
		}, cfg.pool)
		if err != nil {
			return fmt.Errorf("core: building subtype evidence index: %w", err)
		}
	}
	var stats scoreStats
	if err := pool.ForEach(ctx, cfg.pool, len(r.Structural.Families), func(i int) {
		if outs[i] == nil {
			outs[i] = r.analyzeFamily(ctx, cfg, r.Structural.Families[i], sub, &stats)
		}
	}); err != nil {
		return err
	}
	stats.record(cfg.Obs, sub != nil)

	for i, out := range outs {
		if out.err != nil {
			return fmt.Errorf("core: family %v: %w", r.Structural.Families[i], out.err)
		}
		for pc, d := range out.dist {
			r.Dist[pc] = d
		}
		r.Families = append(r.Families, out.fr)
		for c, p := range out.parents {
			if err := r.Hierarchy.SetParent(c, p); err != nil {
				return fmt.Errorf("core: building forest: %w", err)
			}
		}
	}
	return nil
}

// analyzeFamily scores one family's candidate edges and solves the
// arborescence. The admissible (parent, child) pairs are laid out once in
// the deterministic (family order, candidate order) order. The SLM/KL
// sweep (slmScores) scores that layout, and with sub (cfg.Subtype) the
// subtype scorer's scores are added at subtype.DefaultWeight (fuse).
// Without it the solve input is the sweep's scores, bit for bit.
func (r *Result) analyzeFamily(ctx context.Context, cfg Config, fam []uint64, sub *subtype.Scorer, stats *scoreStats) *familyOutcome {
	out := &familyOutcome{fr: FamilyResult{Types: append([]uint64(nil), fam...)}}
	if len(fam) == 1 {
		out.fr.Survivors = arborescence.CoOptimal{Tight: [][]int{nil, {0}}}
		return out
	}
	n := len(fam)
	admissible := 0
	for _, c := range fam {
		admissible += len(r.Structural.PossibleParents[c])
	}
	pairs := make([][2]uint64, 0, admissible)
	for _, c := range fam {
		for _, p := range r.Structural.PossibleParents[c] {
			pairs = append(pairs, [2]uint64{p, c})
		}
	}
	models := make([]*slm.Frozen, n)
	for i, t := range fam {
		models[i] = r.Frozen[t]
	}
	words := r.familyWords(fam)
	var edge []float64
	var root float64
	stats.timed(cfg.Obs, &stats.slm, func() {
		edge, root, out.err = r.slmScores(ctx, cfg, words, models, pairs)
	})
	if out.err != nil {
		return out
	}
	cfg.Obs.Add(obs.CntEvidenceEdges, int64(len(pairs)))
	if sub != nil {
		var subEdge []float64
		var subRoot float64
		stats.timed(cfg.Obs, &stats.sub, func() { subEdge, subRoot = sub.Score(pairs) })
		cfg.Obs.Add(obs.CntEvidenceEdges, int64(len(pairs)))
		root = fuse(edge, root, subEdge, subRoot)
	}
	out.dist = make(map[[2]uint64]float64, len(pairs))
	for k, pc := range pairs {
		out.dist[pc] = edge[k]
	}
	// Graph: node 0 is the virtual root; types follow in family order.
	nodeOf := map[uint64]int{}
	for i, t := range fam {
		nodeOf[t] = i + 1
	}
	edges := make([]arborescence.Edge, 0, n+admissible)
	for i := range fam {
		edges = append(edges, arborescence.Edge{From: 0, To: i + 1, W: root})
	}
	for k, pc := range pairs {
		edges = append(edges, arborescence.Edge{
			From: nodeOf[pc[0]], To: nodeOf[pc[1]], W: edge[k],
		})
	}
	if familyHook != nil {
		familyHook(fam, edges, enumEps)
	}
	sol, err := arborescence.Solve(n+1, 0, edges)
	if err != nil {
		out.err = err
		return out
	}
	co := sol.CoOptimal(edges, enumEps)
	kept := co.Vote()
	if cfg.Obs != nil {
		cfg.Obs.Add(obs.CntCoOptimal, saturate(co.Count()))
		cfg.Obs.Add(obs.CntArbsKept, saturate(kept.Count()))
	}
	chosen := sol.Parents
	if !kept.Contains(chosen) {
		kept.Each(func(p []int) bool {
			chosen = append([]int(nil), p...)
			return false
		})
	}
	out.fr.Weight = sol.Weight
	out.fr.Survivors = *kept
	out.parents = make(map[uint64]uint64, n)
	for i, t := range fam {
		if p := chosen[i+1]; p > 0 {
			out.parents[t] = fam[p-1]
		}
	}
	return out
}

// saturate returns n, or math.MaxInt64 when n does not fit an int64.
func saturate(n *big.Int) int64 {
	if !n.IsInt64() {
		return math.MaxInt64
	}
	return n.Int64()
}

// slmScores runs the paper's SLM/KL sweep (§4.3) over one family's
// admissible pairs, given the family's word set and its members' models
// in family order. Each member's word distribution over the word set is
// derived exactly once (the DistanceCalculator memoizes per model,
// queries each model once per distinct gram of the word set and derives
// each backoff chain once per derivation); then the
// sweep reduces the cached distributions over pairs in
// deterministically-owned chunks. edge[k] scores pairs[k], lower is a
// more likely child→parent edge; root is the virtual-root weight.
func (r *Result) slmScores(ctx context.Context, cfg Config, words [][]int32, models []*slm.Frozen, pairs [][2]uint64) (edge []float64, root float64, err error) {
	n := len(models)
	calc := slm.NewDistanceCalculator(cfg.Metric, words)
	calc.SetObserver(cfg.Obs)
	calc.Reserve(models)
	if err := pool.ForEachChunk(ctx, cfg.pool, n, modelGrain, func(lo, hi int) {
		for _, m := range models[lo:hi] {
			calc.Precompute(m)
		}
	}); err != nil {
		return nil, 0, err
	}
	edge = make([]float64, len(pairs))
	if err := pool.ForEachChunk(ctx, cfg.pool, len(pairs), pairGrain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			edge[k] = calc.Distance(r.Frozen[pairs[k][0]], r.Frozen[pairs[k][1]])
		}
	}); err != nil {
		return nil, 0, err
	}
	cfg.Obs.Add(obs.CntDistPairs, int64(len(pairs)))
	cfg.Obs.Add(obs.CntDistPairsPruned, int64(n*(n-1)-len(pairs)))
	// PairBound ≥ the largest distance over all n(n-1) ordered pairs, so
	// Heuristic 4.1's "root edges are always the worst choice" ordering
	// holds although only the admissible pairs were scored.
	return edge, calc.PairBound(models)*rootWeightFactor + 1, nil
}

// fuse adds the subtype scores at subtype.DefaultWeight to the SLM/KL
// ones, in that order: edge[k] becomes edge[k] + w·subEdge[k] in place,
// and the fused root root + w·subRoot is returned. Each scorer's root
// dominates its own edges, so the fused root dominates every fused edge
// term by term (Heuristic 4.1).
func fuse(edge []float64, root float64, subEdge []float64, subRoot float64) float64 {
	for k, e := range subEdge {
		edge[k] += subtype.DefaultWeight * e
	}
	return root + subtype.DefaultWeight*subRoot
}

// scoreStat is one scorer's accumulated wall/alloc attribution across
// the family fan-out.
type scoreStat struct {
	wall               time.Duration
	allocBytes, allocs uint64
	families           int64
}

// scoreStats accumulates the two scorers' attribution on observed runs.
// Families score concurrently, so under parallelism the process-wide
// allocation gauges attribute estimates, not exact per-scorer
// measurements — the same caveat as the stage records themselves.
type scoreStats struct {
	mu       sync.Mutex
	slm, sub scoreStat
}

// timed runs f and, when bus is non-nil, folds its wall time and
// allocation deltas into st, one of s's accumulators.
func (s *scoreStats) timed(bus *obs.Bus, st *scoreStat, f func()) {
	if bus == nil {
		f()
		return
	}
	bytes0, objs0 := obs.AllocSample()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	bytes1, objs1 := obs.AllocSample()
	s.mu.Lock()
	st.wall += wall
	if bytes1 > bytes0 {
		st.allocBytes += bytes1 - bytes0
	}
	if objs1 > objs0 {
		st.allocs += objs1 - objs0
	}
	st.families++
	s.mu.Unlock()
}

// record emits one aggregate stage row per scorer after the family
// fan-out: "evidence:slm", and "evidence:subtype" when the subtype scorer
// ran, in the hierarchy section, with Count carrying how many families
// the scorer scored. The rows flow through obs.Report.Merge like any
// stage, so rockd's /metrics rollup attributes fleet-level per-scorer
// cost.
func (s *scoreStats) record(bus *obs.Bus, withSubtype bool) {
	if bus == nil {
		return
	}
	row := func(name string, st scoreStat) {
		bus.StageRecord(obs.StageStats{
			Name:       name,
			Section:    snapshot.Tag(snapshot.LevelHierarchy),
			Status:     obs.StageRan,
			Wall:       st.wall,
			AllocBytes: st.allocBytes,
			Allocs:     st.allocs,
			Count:      st.families,
		})
	}
	row("evidence:slm", s.slm)
	if withSubtype {
		row("evidence:subtype", s.sub)
	}
}

// chooseMultiParents implements §5.3: a type whose instances received X
// vtable installs has X parents; the primary parent comes from the
// arborescence and the remaining slots are filled with the next most likely
// candidates by distance.
func (r *Result) chooseMultiParents() {
	r.MultiParents = map[uint64][]uint64{}
	// Secondary subobject vtables are synthetic types: they carry evidence
	// (their neighbors in the forest are the type's additional ancestors)
	// but are never themselves reported as parents.
	isSecondary := map[uint64]bool{}
	for _, secs := range r.Structural.SecondaryInstalls {
		for _, s := range secs {
			isSecondary[s] = true
		}
	}
	// resolve walks up from t to the nearest non-secondary proper ancestor.
	resolve := func(t uint64) (uint64, bool) {
		for {
			p, ok := r.Hierarchy.Parent(t)
			if !ok {
				return 0, false
			}
			if !isSecondary[p] {
				return p, true
			}
			t = p
		}
	}
	for t, secs := range r.Structural.SecondaryInstalls {
		want := 1 + len(secs)
		var parents []uint64
		add := func(p uint64) {
			if p == t || isSecondary[p] {
				return
			}
			for _, q := range parents {
				if q == p {
					return
				}
			}
			parents = append(parents, p)
		}
		if p, ok := resolve(t); ok {
			add(p)
		}
		// Each secondary subobject table sits next to the base it was
		// copied from; its resolved ancestor is one of t's parents.
		for _, s := range secs {
			if sp, ok := resolve(s); ok {
				add(sp)
			}
		}
		// Fill any remaining slots with the most likely candidates by
		// distance (§5.3: "we will choose the X most likely parents").
		type cand struct {
			p uint64
			d float64
		}
		var cands []cand
		for _, p := range r.Structural.PossibleParents[t] {
			cands = append(cands, cand{p, r.Dist[[2]uint64{p, t}]})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].p < cands[j].p
		})
		for _, c := range cands {
			if len(parents) >= want {
				break
			}
			add(c.p)
		}
		if len(parents) > 1 {
			r.MultiParents[t] = parents
		}
	}
}
