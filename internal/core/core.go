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
// section chain), and analyze is a short driver that consults the
// snapshot cache, skips restored stages, and runs the rest, optionally
// recorded on an observer bus (internal/obs). graph.go also renders the
// per-section configuration canons the snapshot key hashes. Every
// analysis runs on a Shared (shared.go), the one resource model;
// AnalyzeContext runs one image on a Shared of its own. This file holds
// the configuration, the Result type, and the per-stage algorithm bodies
// the stages call.
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"sort"
	"sync"
	"time"

	"repro/internal/arborescence"
	"repro/internal/evidence"
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
	// Trace bounds the tracelet extraction.
	Trace objtrace.Config
	// Structural toggles individual structural heuristics.
	Structural structural.Config
	// RootWeightFactor scales the virtual-root edge weight relative to the
	// largest pairwise distance in a family; it must exceed 1 so that being
	// a derived type is always preferred (Heuristic 4.1).
	RootWeightFactor float64
	// Evidence selects the edge-evidence providers whose scores the
	// hierarchy solve fuses, in fusion order (see internal/evidence). Nil
	// or empty selects the paper's configuration: the SLM/KL behavioral
	// sweep alone. Every name must be evidence.Known and appear once;
	// "slm" requires UseSLM. Non-default provider sets change the
	// hierarchy-section snapshot fingerprint (and only that section).
	Evidence []string
	// FuseWeights overrides the per-provider fusion weights by name.
	// Providers absent from the map keep their defaults (slm: 1, subtype:
	// subtype.DefaultWeight). Weights must be finite and non-negative,
	// may only name enabled providers, and at least one must be nonzero.
	// With exactly one nonzero weight equal to 1 the fusion is an exact
	// passthrough of that provider — {slm: 1, subtype: 0} is bit-identical
	// to the pure-SLM pipeline.
	FuseWeights map[string]float64
	// EnumEps is the near-tie tolerance of the co-optimal structure
	// (arborescence.CoOptimal): an edge is tight iff its reduced cost is
	// at most EnumEps, and a contracted set binds iff its dual exceeds it.
	EnumEps float64
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
	// cache (internal/snapshot): after a cold analysis the derived
	// artifacts are persisted under this directory keyed by the image's
	// content digest and per-stage config fingerprints, and later runs
	// reuse every section whose fingerprint still matches. The directory
	// must exist. Caching applies only to full (UseSLM) analyses.
	CacheDir string
	// IncrementalFrom, when non-empty, names a snapshot file of a prior
	// version of this image to diff against when the exact snapshot
	// misses: unchanged functions (by image.FunctionDigest) reuse their
	// extraction bundles, types whose training input is unchanged reuse
	// their frozen models, and families untouched by any retrained type
	// restore verbatim. The file must load (an unreadable path is an
	// error), but a snapshot without a function-granular section, or one
	// in another format version, silently degrades to a cold run. When
	// empty but CacheDir is set, the lane auto-discovers the nearest prior
	// snapshot of the same image family (matched by hashed module name) in
	// the cache directory.
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
		UseSLM:           true,
		SLMDepth:         2,
		Metric:           slm.MetricKL,
		Trace:            objtrace.DefaultConfig(),
		RootWeightFactor: 8,
		EnumEps:          1e-9,
	}
}

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
	// Funcs holds the disassembled functions. It is nil on a warm run that
	// restored the extraction from a snapshot (disassembly was skipped).
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
	// SnapshotReuse reports how much of a cached snapshot this run reused:
	// snapshot.LevelNone (cold), LevelExtraction, LevelModels, or
	// LevelHierarchy (fully warm). Always LevelNone without a CacheDir.
	SnapshotReuse int
	// Incremental reports the version-diff warm lane's reuse when it
	// engaged (a prior sibling snapshot was diffed against); nil otherwise.
	// The lane never changes the Result — every reused artifact is
	// deep-equal to what recomputation would produce.
	Incremental *IncrementalStats

	// words memoizes each type's distinct encoded tracelets (the word sets
	// the distance sweep measures over), built once per analysis instead of
	// once per family a type belongs to.
	words map[uint64][][]int
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
	// fnSection is a function section carried forward verbatim from a
	// whole-image warm restore (the extraction never reran, so the prior
	// section is still exact).
	fnSection *snapshot.FnSection
	// typeKeys memoizes each type's training-input digest (TypeKey).
	typeKeys map[uint64][32]byte
	// affected, when non-nil, is the set of types whose tracelet lists may
	// differ from the diffed-against prior run (computed by the delta
	// merge). Types outside it provably have byte-identical lists, which
	// licenses copying their prior TypeKeys without re-hashing. Nil means
	// no delta information: every type must be treated as affected.
	affected map[uint64]bool
	// providers are the constructed evidence backends, in fusion order,
	// with provWeights their parallel fusion weights (built by the
	// evidence stage; see evidence.go).
	providers   []evidence.Provider
	provWeights []float64
	// provStats accumulates per-provider wall/alloc attribution across
	// the concurrent family fan-out (observed runs only), folded into one
	// stage row per provider after the hierarchy stage.
	provMu    sync.Mutex
	provStats []provStat
}

// provStat is one provider's accumulated score-sweep attribution.
type provStat struct {
	wall               time.Duration
	allocBytes, allocs uint64
	families           int64
}

// IncrementalStats attributes the incremental lane's reuse.
type IncrementalStats struct {
	// PriorPath is the snapshot file the lane diffed against.
	PriorPath string
	// FnHits/FnMisses count functions whose extraction bundle was reused
	// vs re-executed.
	FnHits, FnMisses int
	// TypesReused/TypesRetrained count frozen models adopted vs retrained.
	TypesReused, TypesRetrained int
	// FamiliesRestored/FamiliesResolved count families restored verbatim
	// vs re-solved.
	FamiliesRestored, FamiliesResolved int
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
// first consults the content-addressed snapshot cache and reruns only the
// stages whose configuration fingerprints no longer match (see
// internal/snapshot); a fully warm run restores every derived artifact
// and recomputes nothing.
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
	if c.RootWeightFactor <= 1 {
		c.RootWeightFactor = 8
	}
	if c.EnumEps <= 0 {
		c.EnumEps = 1e-9
	}
	c.Trace.Pool = c.pool
	return c
}

// restoreHierarchy rebuilds the hierarchy-stage outputs from a snapshot.
func (r *Result) restoreHierarchy(snap *snapshot.Snapshot) {
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

// internAlphabet assigns integer symbols to every distinct event observed
// anywhere in the binary, so that all SLMs share one alphabet, and then
// memoizes each type's encoded word set (buildWords).
func (r *Result) internAlphabet() {
	seen := map[[2]uint64]bool{}
	var events []objtrace.Event
	types := make([]uint64, 0, len(r.Tracelets.PerType))
	for t := range r.Tracelets.PerType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		for _, tl := range r.Tracelets.PerType[t] {
			for _, e := range tl {
				if k := eventKey(e); !seen[k] {
					seen[k] = true
					events = append(events, e)
				}
			}
		}
	}
	r.Alphabet = events
	// On the incremental lane word sets are built lazily: restored
	// families never read theirs, so encoding every type here would undo
	// most of the lane's savings (buildHierarchy encodes exactly the types
	// the re-solved families need).
	if r.incr == nil {
		r.buildWords()
	}
}

// buildWords memoizes the distinct encoded tracelets of every type — each
// type's words are encoded exactly once per analysis and reused by every
// family word-set union, instead of being re-encoded for each family (and
// on warm snapshot runs, rebuilt only when the hierarchy stage actually
// runs). Idempotent.
func (r *Result) buildWords() {
	addrs := make([]uint64, len(r.VTables))
	for i, v := range r.VTables {
		addrs[i] = v.Addr
	}
	r.buildWordsFor(addrs)
}

// buildWordsFor fills the word-set memo for the given types, skipping any
// already built. Not safe to call concurrently with itself or with
// readers — callers encode on the serial path before fanning out.
func (r *Result) buildWordsFor(types []uint64) {
	if r.words == nil {
		r.words = make(map[uint64][][]int, len(types))
	}
	var idx map[[2]uint64]int
	var w []int
	var key []byte
	for _, t := range types {
		if _, ok := r.words[t]; ok {
			continue
		}
		if idx == nil {
			idx = r.symIndex()
		}
		seen := map[string]bool{}
		var out [][]int
		for _, tl := range r.Tracelets.PerType[t] {
			w = appendEncoded(w[:0], idx, tl)
			key = appendWordKey(key[:0], w)
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			out = append(out, append([]int(nil), w...))
		}
		r.words[t] = out
	}
}

// appendWordKey appends the dedup key of an encoded word to dst: one
// fixed-width symbol after another, so distinct words get distinct keys.
func appendWordKey(dst []byte, w []int) []byte {
	for _, s := range w {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s))
	}
	return dst
}

// eventKey is e as a padding-free map key. Event's padding sends a
// map[objtrace.Event] lookup through the generic struct hash; a
// [2]uint64 key takes the runtime's 128-bit memory hash, and the
// encoding stays one-to-one.
func eventKey(e objtrace.Event) [2]uint64 { return [2]uint64{uint64(e.Kind), e.N} }

// symIndex builds the event -> symbol map, keyed by eventKey.
func (r *Result) symIndex() map[[2]uint64]int {
	idx := make(map[[2]uint64]int, len(r.Alphabet))
	for i, e := range r.Alphabet {
		idx[eventKey(e)] = i
	}
	return idx
}

// SymbolName renders symbol s in the paper's event notation.
func (r *Result) SymbolName(s int) string {
	if s >= 0 && s < len(r.Alphabet) {
		return r.Alphabet[s].String()
	}
	return fmt.Sprintf("sym%d", s)
}

// appendEncoded appends tracelet tl as interned symbols to dst.
func appendEncoded(dst []int, idx map[[2]uint64]int, tl objtrace.Tracelet) []int {
	for _, e := range tl {
		dst = append(dst, idx[eventKey(e)])
	}
	return dst
}

// trainScratch is one training goroutine's reusable state: the trainer's
// buffers and the encoded-tracelet buffer it reads from.
type trainScratch struct {
	t   slm.Trainer
	seq []int
}

// trainScratches recycles training state across types and analyses.
var trainScratches = sync.Pool{New: func() any { return new(trainScratch) }}

// trainModels trains one SLM per discovered type on TT(t), straight into
// its frozen query form. Types are independent (each model sees only its
// own tracelets), so training fans out over the worker pool; models land
// in index-owned slots and the maps are assembled serially. On the
// incremental lane, types whose training input is provably unchanged
// (TypeKey match) adopt the prior frozen model and skip training.
func (r *Result) trainModels(ctx context.Context, cfg Config) error {
	ctx = obs.WithRegion(ctx, cfg.Obs, "train")
	idx := r.symIndex()
	reuse := r.reusableModels()
	frozen := make([]*slm.Frozen, len(r.VTables))
	if err := pool.ForEach(ctx, cfg.pool, len(r.VTables), func(i int) {
		if f := reuse[r.VTables[i].Addr]; f != nil {
			frozen[i] = f
			return
		}
		s := trainScratches.Get().(*trainScratch)
		s.t.Reset(cfg.SLMDepth, len(r.Alphabet))
		for _, tl := range r.Tracelets.PerType[r.VTables[i].Addr] {
			s.seq = appendEncoded(s.seq[:0], idx, tl)
			s.t.Add(s.seq)
		}
		frozen[i] = s.t.Build()
		trainScratches.Put(s)
	}); err != nil {
		return err
	}
	r.Frozen = make(map[uint64]*slm.Frozen, len(r.VTables))
	for i, v := range r.VTables {
		r.Frozen[v.Addr] = frozen[i]
	}
	if r.Incremental != nil {
		r.Incremental.TypesReused = len(reuse)
		r.Incremental.TypesRetrained = len(r.VTables) - len(reuse)
		cfg.Obs.Add(obs.CntTypesRetrained, int64(r.Incremental.TypesRetrained))
	}
	return nil
}

// familyWords returns the union of distinct tracelets across all family
// members, drawn from the per-type memo (buildWords) so no tracelet is
// encoded more than once per analysis. Every pairwise distance within the
// family is measured over this one word set: the algorithm only needs a
// ranking over candidate parents (Remark 4.1), and ranking distances
// measured over differing word sets would not be comparable.
func (r *Result) familyWords(fam []uint64) [][]int {
	seen := map[string]bool{}
	var words [][]int
	var key []byte
	for _, t := range fam {
		for _, w := range r.words[t] {
			key = appendWordKey(key[:0], w)
			if !seen[string(key)] {
				seen[string(key)] = true
				words = append(words, w)
			}
		}
	}
	return words
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
		r.Incremental.FamiliesRestored = restored
		r.Incremental.FamiliesResolved = len(outs) - restored
		cfg.Obs.Add(obs.CntFamiliesResolved, int64(len(outs)-restored))
	}
	var solving []uint64
	for i, fam := range r.Structural.Families {
		if outs[i] == nil {
			solving = append(solving, fam...)
		}
	}
	if cfg.hasSLM() {
		r.buildWordsFor(solving)
	}
	if err := pool.ForEach(ctx, cfg.pool, len(r.Structural.Families), func(i int) {
		if outs[i] == nil {
			outs[i] = r.analyzeFamily(ctx, cfg, r.Structural.Families[i])
		}
	}); err != nil {
		return err
	}
	r.recordProviderStages(cfg)
	// The providers are stage-local scaffolding; drop them so the Result
	// does not retain the subtype index or the observation configuration
	// captured inside the providers (observed and unobserved runs of the
	// same analysis must stay deep-equal — observation may measure, never
	// steer).
	r.providers, r.provWeights, r.provStats = nil, nil, nil

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

// analyzeFamily scores one family's candidate edges through the enabled
// evidence providers, fuses the scores, and solves the arborescence. The
// admissible (parent, child) pairs are laid out once in the deterministic
// (family order, candidate order) order; each provider scores that one
// layout (the SLM provider runs the chunked divergence sweep over the
// frozen flat tries, the subtype provider reads its constraint index),
// and evidence.Fuse reduces the score vectors to the edge weights the
// solve consumes. Under the default configuration the fusion is an exact
// passthrough of the SLM scores, so the solve input is bit-identical to
// the pre-provider pipeline.
func (r *Result) analyzeFamily(ctx context.Context, cfg Config, fam []uint64) *familyOutcome {
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
	in := &evidence.FamilyInput{Types: out.fr.Types, Pairs: pairs}
	if cfg.hasSLM() {
		in.Words = r.familyWords(fam)
		models := make([]*slm.Frozen, n)
		for i, t := range fam {
			models[i] = r.Frozen[t]
		}
		in.Models = models
		in.ModelOf = func(t uint64) *slm.Frozen { return r.Frozen[t] }
	}
	all := make([]*evidence.Scores, len(r.providers))
	for i, p := range r.providers {
		var t0 time.Time
		var bytes0, objs0 uint64
		if cfg.Obs != nil {
			bytes0, objs0 = obs.AllocSample()
			t0 = time.Now()
		}
		s, err := p.Score(ctx, in)
		if err != nil {
			out.err = err
			return out
		}
		if cfg.Obs != nil {
			r.recordProvider(i, time.Since(t0), bytes0, objs0)
		}
		all[i] = s
	}
	cfg.Obs.Add(obs.CntEvidenceEdges, int64(len(pairs)*len(r.providers)))
	fused := evidence.Fuse(all, r.provWeights)
	out.dist = make(map[[2]uint64]float64, len(pairs))
	for k, pc := range pairs {
		out.dist[pc] = fused.Edge[k]
	}
	// Graph: node 0 is the virtual root; types follow in family order.
	nodeOf := map[uint64]int{}
	for i, t := range fam {
		nodeOf[t] = i + 1
	}
	edges := make([]arborescence.Edge, 0, n+admissible)
	for i := range fam {
		edges = append(edges, arborescence.Edge{From: 0, To: i + 1, W: fused.Root})
	}
	for k, pc := range pairs {
		edges = append(edges, arborescence.Edge{
			From: nodeOf[pc[0]], To: nodeOf[pc[1]], W: fused.Edge[k],
		})
	}
	if familyHook != nil {
		familyHook(fam, edges, cfg.EnumEps)
	}
	sol, err := arborescence.Solve(n+1, 0, edges)
	if err != nil {
		out.err = err
		return out
	}
	co := sol.CoOptimal(edges, cfg.EnumEps)
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

// recordProvider folds one provider invocation's wall/alloc deltas into
// the per-provider aggregate. Families score concurrently, so under
// parallelism the process-wide allocation gauges attribute estimates,
// not exact per-provider measurements — the same caveat as the stage
// records themselves.
func (r *Result) recordProvider(i int, wall time.Duration, bytes0, objs0 uint64) {
	bytes1, objs1 := obs.AllocSample()
	r.provMu.Lock()
	st := &r.provStats[i]
	st.wall += wall
	if bytes1 > bytes0 {
		st.allocBytes += bytes1 - bytes0
	}
	if objs1 > objs0 {
		st.allocs += objs1 - objs0
	}
	st.families++
	r.provMu.Unlock()
}

// recordProviderStages emits one aggregate stage row per evidence
// provider after the family fan-out: Name "evidence:<provider>" in the
// hierarchy section, with Count carrying how many families the provider
// scored. The rows flow through obs.Report.Merge like any stage, so
// rockd's /metrics rollup attributes fleet-level per-provider cost.
func (r *Result) recordProviderStages(cfg Config) {
	if cfg.Obs == nil {
		return
	}
	for i, p := range r.providers {
		st := r.provStats[i]
		cfg.Obs.StageRecord(obs.StageStats{
			Name:       "evidence:" + p.Name(),
			Section:    snapshot.Tag(snapshot.LevelHierarchy),
			Status:     obs.StageRan,
			Wall:       st.wall,
			AllocBytes: st.allocBytes,
			Allocs:     st.allocs,
			Count:      st.families,
		})
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

// WithoutSLMSuccessors returns the successor sets implied by the structural
// possibleParent relation alone (the §6.4 "Without SLMs" column).
func (r *Result) WithoutSLMSuccessors() map[uint64]map[uint64]bool {
	var types []uint64
	for _, v := range r.VTables {
		types = append(types, v.Addr)
	}
	return hierarchy.PossibleParentSuccessors(r.Structural.PossibleParents, types)
}
