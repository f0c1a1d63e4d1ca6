// Package rock is the public API of the Rock class-hierarchy reconstructor
// (Katz, Rinetzky, Yahav — "Statistical Reconstruction of Class Hierarchies
// in Binaries", ASPLOS 2018).
//
// Given a serialized binary image (see the repository's image format), Rock
// discovers the binary types (virtual function tables), partitions them
// into type families with a structural analysis, trains one statistical
// language model per type from statically extracted object tracelets, and
// reconstructs the most likely class hierarchy per family by solving a
// minimum-weight spanning arborescence over Kullback–Leibler distances
// between the models. After training, each model is frozen into a flat,
// allocation-free trie (internal/slm.Frozen) and the entire distance sweep
// queries the frozen forms; the frozen kernel is bit-identical to the
// training representation, so this is purely a performance property.
//
// The analysis never consumes names or ground truth: if the input image
// carries metadata (a ground-truth side channel produced by the bundled
// compiler), Rock analyzes a stripped copy and uses the metadata only to
// decorate the report with display names and reference edges.
package rock

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/slm"
)

// Observer is a per-analysis observability bus: it collects per-stage
// wall times, allocation estimates, cache-hit attribution, and domain
// counters (vtables found, tracelets extracted, edges pruned, ...), and —
// with a Trace attached — chrome-tracing spans. One Observer observes one
// analysis; create one with NewObserver, pass it in Options.Observer, and
// read Report.Stats (or call its Report method) afterwards. Results are
// never affected by observation.
type Observer = obs.Bus

// Stats is the machine-readable per-stage record an Observer collects.
type Stats = obs.Report

// Trace is a chrome-tracing (Perfetto-loadable) span sink. One Trace may
// be shared by many Observers — the corpus engine draws every image on
// its own lane — and is serialized with WriteTo/WriteFile.
type Trace = obs.Trace

// NewObserver returns an empty enabled Observer.
func NewObserver() *Observer { return obs.NewBus() }

// NewTrace returns an empty Trace whose epoch is now.
func NewTrace() *Trace { return obs.NewTrace() }

// Options configures an analysis. The zero value selects the paper's
// defaults (SLM depth 2, tracelet window 7, DKL metric, behavioral analysis
// enabled).
type Options struct {
	// SLMDepth is the maximum order of the per-type language models. 0
	// selects 2; a negative depth is an error.
	SLMDepth int
	// Window is the object-tracelet length bound. 0 selects 7; a negative
	// window is an error.
	Window int
	// Metric selects the pairwise distance: "kl" (default),
	// "js-divergence", or "js-distance".
	Metric string
	// StructuralOnly disables the behavioral analysis, reproducing the
	// paper's "without SLMs" baseline: only type families and the
	// possible-parents relation are reported.
	StructuralOnly bool
	// Workers bounds the analysis concurrency: a one-shot analysis runs on
	// a worker pool of this capacity, and its parallel stages (tracelet
	// extraction, SLM training, pairwise distance matrices, per-family
	// arborescences), nested ones included, never run more than Workers
	// goroutines together. An Engine or a corpus run shares one pool of
	// this capacity across all its analyses. 0 uses all CPUs
	// (runtime.GOMAXPROCS); 1 runs fully serially. The Report is
	// identical for every value.
	Workers int
	// CacheDir, when non-empty, enables the content-addressed snapshot
	// cache: analysis artifacts are persisted under this directory, one
	// slot per binary keyed by the image's content digest and config
	// fingerprints. A repeat analysis of the same binary under the same
	// configuration restores warm; under a changed configuration with the
	// same tracelet window, the slot is the version-diff prior
	// (IncrementalFrom) and unchanged functions, models and families are
	// reused. The directory must exist. The Report of a warm run is
	// identical to a cold one.
	CacheDir string
	// IncrementalFrom names a prior version's snapshot (.rsnap) to diff
	// the analysis against: functions, models, and families whose inputs
	// are provably unchanged since that snapshot are reused instead of
	// recomputed. Empty with CacheDir set auto-discovers the nearest
	// prior of the same image name in the cache directory. The Report is
	// identical to a cold run either way.
	IncrementalFrom string
	// Subtype fuses a constraint-based structural subtyping scorer
	// (vtable-slot overlap, construction install flow, parent-method
	// calls) into the paper's behavioral divergence sweep at its
	// calibrated weight. False runs the sweep alone.
	Subtype bool
	// Observer, when non-nil, records the analysis on an observability bus;
	// the collected Stats land in Report.Stats. Attach a Trace to the
	// Observer to additionally capture chrome-tracing spans. Observation
	// never changes results, and a nil Observer costs nothing.
	Observer *Observer
}

// Type describes one discovered binary type.
type Type struct {
	// VTable is the type's vtable address — its identity.
	VTable uint64
	// Slots is the number of virtual function slots.
	Slots int
	// Name is a display name from metadata, or "vt_0x..." for a stripped
	// input.
	Name string
	// Secondary marks a secondary (multiple-inheritance) subobject vtable.
	Secondary bool
}

// Edge is a child → parent link in a hierarchy.
type Edge struct {
	Child, Parent uint64
}

// Report is the analysis result.
type Report struct {
	// Types lists every discovered binary type, by ascending vtable address.
	Types []Type
	// Families partitions the vtable addresses into type families.
	Families [][]uint64
	// PossibleParents is the post-structural candidate relation.
	PossibleParents map[uint64][]uint64
	// StructurallyResolved reports whether the structural analysis alone
	// pinned down a single hierarchy (at most one candidate per type).
	StructurallyResolved bool
	// Edges is the reconstructed hierarchy (absent with StructuralOnly).
	Edges []Edge
	// MultiParents lists the parent sets chosen for multiple-inheritance
	// types (§5.3).
	MultiParents map[uint64][]uint64
	// GroundTruthEdges holds the metadata hierarchy when the input image
	// carried one (for the caller's convenience; never used by analysis).
	GroundTruthEdges []Edge
	// SnapshotReuse is 3 (the snapshot reuse level LevelHierarchy) when
	// the run restored warm — the whole analysis was restored from disk —
	// and 0 otherwise; Incremental reports the version-diff lane's reuse.
	// Always 0 without a CacheDir.
	SnapshotReuse int
	// Incremental reports that the version-diff warm lane engaged: the
	// exact snapshot missed but a prior version of the same binary was
	// diffed against, reusing unchanged functions, models, and families.
	Incremental bool
	// Stats is the observability record of this analysis — per-stage wall
	// times, cache attribution, and domain counters. Nil unless
	// Options.Observer was set.
	Stats *Stats

	names map[uint64]string
}

// Analyze loads a serialized image and reconstructs its class hierarchy.
func Analyze(binary []byte, opts Options) (*Report, error) {
	return AnalyzeContext(context.Background(), binary, opts)
}

// AnalyzeContext is Analyze with cancellation: when ctx is canceled the
// in-flight stages drain and the analysis returns ctx.Err() promptly
// without writing a snapshot.
func AnalyzeContext(ctx context.Context, binary []byte, opts Options) (*Report, error) {
	img, err := image.Load(binary)
	if err != nil {
		return nil, err
	}
	return AnalyzeImageContext(ctx, img, opts)
}

// ErrInvalidOption is wrapped by every error an invalid Options value
// causes, so callers can tell a usage mistake from a failed analysis
// with errors.Is.
var ErrInvalidOption = errors.New("invalid analysis option")

// config translates the public Options into a pipeline configuration.
func config(opts Options) (core.Config, error) {
	cfg := core.DefaultConfig()
	if opts.SLMDepth < 0 {
		return cfg, fmt.Errorf("%w: negative SLM depth %d (0 selects the default)", ErrInvalidOption, opts.SLMDepth)
	}
	if opts.Window < 0 {
		return cfg, fmt.Errorf("%w: negative tracelet window %d (0 selects the default)", ErrInvalidOption, opts.Window)
	}
	cfg.SLMDepth = opts.SLMDepth
	cfg.Window = opts.Window
	switch strings.ToLower(opts.Metric) {
	case "", "kl", "dkl":
		cfg.Metric = slm.MetricKL
	case "js-divergence", "js":
		cfg.Metric = slm.MetricJSDivergence
	case "js-distance", "jsd":
		cfg.Metric = slm.MetricJSDistance
	default:
		return cfg, fmt.Errorf("%w: unknown metric %q (want kl, js-divergence or js-distance)", ErrInvalidOption, opts.Metric)
	}
	cfg.UseSLM = !opts.StructuralOnly
	cfg.Workers = opts.Workers
	cfg.CacheDir = opts.CacheDir
	cfg.IncrementalFrom = opts.IncrementalFrom
	cfg.Subtype = opts.Subtype
	cfg.Obs = opts.Observer
	return cfg, nil
}

// AnalyzeImage analyzes an already-loaded image. Metadata, if present, is
// stripped before analysis and used only to decorate the report.
func AnalyzeImage(img *image.Image, opts Options) (*Report, error) {
	return AnalyzeImageContext(context.Background(), img, opts)
}

// AnalyzeImageContext is AnalyzeImage with cancellation (see
// AnalyzeContext).
func AnalyzeImageContext(ctx context.Context, img *image.Image, opts Options) (*Report, error) {
	cfg, err := config(opts)
	if err != nil {
		return nil, err
	}
	return analyzeOn(ctx, core.NewShared(cfg.Workers), img, cfg)
}

// analyzeOn is the one body behind AnalyzeImageContext and
// Engine.AnalyzeImage: strip the metadata, run the analysis on sh under
// its admission rule, and decorate the result with the metadata and the
// observer's Stats.
func analyzeOn(ctx context.Context, sh *core.Shared, img *image.Image, cfg core.Config) (*Report, error) {
	stripped := img
	if img.Meta != nil {
		stripped = img.Strip()
	}
	res, _, err := sh.Analyze(ctx, stripped, cfg)
	if err != nil {
		return nil, err
	}
	rep := buildReport(res, img.Meta)
	rep.Stats = cfg.Obs.Report() // nil-safe: unobserved runs keep nil Stats
	return rep, nil
}

// buildReport decorates a pipeline result into the public Report.
func buildReport(res *core.Result, meta *image.Metadata) *Report {
	rep := &Report{
		PossibleParents:      map[uint64][]uint64{},
		MultiParents:         map[uint64][]uint64{},
		StructurallyResolved: res.Structural.Resolvable(),
		SnapshotReuse:        res.SnapshotReuse,
		Incremental:          res.Incremental != nil,
		names:                map[uint64]string{},
	}
	namer := core.TypeNamer(meta)
	for _, v := range res.VTables {
		t := Type{VTable: v.Addr, Slots: v.NumSlots(), Name: namer(v.Addr)}
		if meta != nil {
			if tm := meta.TypeByVTable(v.Addr); tm != nil {
				t.Secondary = tm.Secondary
			}
		}
		rep.names[v.Addr] = t.Name
		rep.Types = append(rep.Types, t)
	}
	for _, fam := range res.Structural.Families {
		rep.Families = append(rep.Families, append([]uint64(nil), fam...))
	}
	for c, ps := range res.Structural.PossibleParents {
		rep.PossibleParents[c] = append([]uint64(nil), ps...)
	}
	if res.Hierarchy != nil {
		for _, t := range res.Hierarchy.Nodes() {
			if p, ok := res.Hierarchy.Parent(t); ok {
				rep.Edges = append(rep.Edges, Edge{Child: t, Parent: p})
			}
		}
		sort.Slice(rep.Edges, func(i, j int) bool { return rep.Edges[i].Child < rep.Edges[j].Child })
	}
	for t, ps := range res.MultiParents {
		rep.MultiParents[t] = append([]uint64(nil), ps...)
	}
	if meta != nil {
		for _, tm := range meta.Types {
			if tm.Parent != 0 {
				rep.GroundTruthEdges = append(rep.GroundTruthEdges, Edge{Child: tm.VTable, Parent: tm.Parent})
			}
		}
		sort.Slice(rep.GroundTruthEdges, func(i, j int) bool {
			return rep.GroundTruthEdges[i].Child < rep.GroundTruthEdges[j].Child
		})
	}
	return rep
}

// Name returns the display name of a type.
func (r *Report) Name(vt uint64) string {
	if n, ok := r.names[vt]; ok {
		return n
	}
	return fmt.Sprintf("vt_0x%x", vt)
}

// HierarchyString renders the reconstructed forest as an indented tree.
func (r *Report) HierarchyString() string {
	parent := map[uint64]uint64{}
	for _, e := range r.Edges {
		parent[e.Child] = e.Parent
	}
	children := map[uint64][]uint64{}
	var roots []uint64
	for _, t := range r.Types {
		if p, ok := parent[t.VTable]; ok {
			children[p] = append(children[p], t.VTable)
		} else {
			roots = append(roots, t.VTable)
		}
	}
	var b strings.Builder
	var rec func(t uint64, depth int)
	rec = func(t uint64, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), r.Name(t))
		for _, c := range children[t] {
			rec(c, depth+1)
		}
	}
	for _, root := range roots {
		rec(root, 0)
	}
	return b.String()
}
