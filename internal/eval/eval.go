// Package eval runs the Table 2 evaluation: for every benchmark it builds
// the stripped binary, runs Rock with and without SLMs, and measures the
// application distance (§6.3) against the ground-truth induced hierarchy
// recorded by the compiler (the RTTI/debug-symbol analogue of §6.2).
//
// Following §4.2.2 ("we report the worst-case results: those obtained by
// choosing the least precise hierarchy"), when majority voting leaves
// several co-optimal hierarchies in a family the per-family choice that
// maximizes the benchmark's error is used.
package eval

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/image"
)

// Row is one Table 2 line: measured values plus the paper's reference.
type Row struct {
	Name       string
	SizeKB     float64
	Types      int
	Resolvable bool

	WithoutMissing float64
	WithoutAdded   float64
	WithMissing    float64
	WithAdded      float64

	Paper bench.PaperRow
}

// RunWithConfig evaluates one benchmark under a custom pipeline
// configuration (used by the ablation benches). cfg.UseSLM is forced on;
// the "without SLMs" column always comes from the structural relation.
func RunWithConfig(b *bench.Benchmark, cfg core.Config) (*Row, error) {
	img, meta, err := b.Build()
	if err != nil {
		return nil, err
	}
	cfg.UseSLM = true
	res, err := core.Analyze(img, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	return Score(b, img, meta, res)
}

// Score computes the row from an analysis result.
func Score(b *bench.Benchmark, img *image.Image, meta *image.Metadata, res *core.Result) (*Row, error) {
	gt, err := GroundTruthForest(meta)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	counted, err := countedTypes(b, meta)
	if err != nil {
		return nil, err
	}
	gtSucc := gt.AllSuccessors()

	row := &Row{
		Name:       b.Name,
		SizeKB:     float64(len(img.Code)+len(img.Rodata)) / 1024,
		Types:      len(counted),
		Resolvable: res.Structural.Resolvable(),
		Paper:      b.Paper,
	}

	// Without SLMs: a type is a successor of each of its possible parents.
	var allTypes []uint64
	for _, v := range res.VTables {
		allTypes = append(allTypes, v.Addr)
	}
	woSucc := hierarchy.PossibleParentSuccessors(res.Structural.PossibleParents, allTypes)
	wo := hierarchy.ApplicationDistance(gtSucc, woSucc, counted)
	row.WithoutMissing, row.WithoutAdded = wo.AvgMissing, wo.AvgAdded

	// With SLMs: per family, the worst-case surviving arborescence.
	countedSet := map[uint64]bool{}
	for _, t := range counted {
		countedSet[t] = true
	}
	totalMissing, totalAdded := 0, 0
	for _, fr := range res.Families {
		m, a, err := worstCase(fr, gtSucc, countedSet)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", b.Name, err)
		}
		totalMissing += m
		totalAdded += a
	}
	if len(counted) > 0 {
		row.WithMissing = float64(totalMissing) / float64(len(counted))
		row.WithAdded = float64(totalAdded) / float64(len(counted))
	}
	return row, nil
}

// maxSurvivors caps the co-optimal hierarchies worstCase scores per
// family. Scoring one costs a pass over the family, so the cap bounds a
// Score at about a second; a family with more survivors is an error, never
// a smaller worst case.
const maxSurvivors = 1 << 20

// worstCase returns the missing/added totals the family contributes under
// its least precise surviving hierarchy: the one with the most errors, the
// first streamed among equals. Each survivor's successor sets are bitsets
// over the family's nodes, built bottom-up in reverse topological order.
func worstCase(fr core.FamilyResult, gtSucc map[uint64]map[uint64]bool, counted map[uint64]bool) (missing, added int, err error) {
	co := &fr.Survivors
	if count := co.Count(); count.Cmp(big.NewInt(maxSurvivors)) > 0 {
		return 0, 0, fmt.Errorf("family %#x: %v co-optimal hierarchies exceed the scoring cap of %d", fr.Types[0], count, maxSurvivors)
	}
	// Node i+1 is fr.Types[i]. gt[i] holds the counted type's
	// ground-truth successors inside the family; outside[i] counts the
	// rest, which no family hierarchy reaches.
	n := len(fr.Types) + 1
	words := (n + 63) / 64
	gt := make([]uint64, n*words)
	outside := make([]int, n)
	index := make(map[uint64]int, n)
	for i, t := range fr.Types {
		index[t] = i + 1
	}
	var scored []int
	for i, t := range fr.Types {
		if !counted[t] {
			continue
		}
		scored = append(scored, i+1)
		for s := range gtSucc[t] {
			if j, ok := index[s]; ok {
				gt[(i+1)*words+j/64] |= 1 << (j % 64)
			} else {
				outside[i+1]++
			}
		}
	}
	succ := make([]uint64, n*words)
	head, next, order := make([]int, n), make([]int, n), make([]int, n)
	worst := -1
	co.Each(func(parent []int) bool {
		// Breadth-first order from the root over child lists; walked
		// backwards it is a reverse topological order, so every child's
		// successor set is complete before it is merged into its parent's.
		for v := range head {
			head[v] = -1
		}
		for v := n - 1; v >= 0; v-- {
			if p := parent[v]; p >= 0 {
				next[v], head[p] = head[p], v
			}
		}
		order[0] = co.Root
		for i, k := 0, 1; i < k; i++ {
			for c := head[order[i]]; c >= 0; c = next[c] {
				order[k] = c
				k++
			}
		}
		clear(succ)
		for i := n - 1; i > 0; i-- {
			v := order[i]
			if p := parent[v]; p != co.Root {
				row, up := succ[v*words:(v+1)*words], succ[p*words:(p+1)*words]
				for k := range up {
					up[k] |= row[k]
				}
				up[v/64] |= 1 << (v % 64)
			}
		}
		m, a := 0, 0
		for _, v := range scored {
			m += outside[v]
			for k := 0; k < words; k++ {
				h, g := succ[v*words+k], gt[v*words+k]
				m += bits.OnesCount64(g &^ h)
				a += bits.OnesCount64(h &^ g)
			}
		}
		if m+a > worst {
			worst, missing, added = m+a, m, a
		}
		return true
	})
	return missing, added, nil
}

// GroundTruthForest builds the induced binary type hierarchy from metadata
// (primary vtables only; secondary MI subobject tables are the synthetic
// classes the paper filters).
func GroundTruthForest(meta *image.Metadata) (*hierarchy.Forest, error) {
	var nodes []uint64
	for _, tm := range meta.Types {
		if !tm.Secondary {
			nodes = append(nodes, tm.VTable)
		}
	}
	f := hierarchy.NewForest(nodes)
	for _, tm := range meta.Types {
		if tm.Secondary || tm.Parent == 0 {
			continue
		}
		if err := f.SetParent(tm.VTable, tm.Parent); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// countedTypes resolves the benchmark's evaluated type universe to vtable
// addresses.
func countedTypes(b *bench.Benchmark, meta *image.Metadata) ([]uint64, error) {
	var out []uint64
	if len(b.Counted) == 0 {
		for _, tm := range meta.Types {
			if !tm.Secondary {
				out = append(out, tm.VTable)
			}
		}
		return out, nil
	}
	for _, name := range b.Counted {
		tm := meta.TypeByName(name)
		if tm == nil {
			return nil, fmt.Errorf("bench %s: counted type %q not emitted", b.Name, name)
		}
		out = append(out, tm.VTable)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// BenchOutcome bundles one benchmark's built image and analysis result,
// for callers that score or compare the raw pipeline output (rockbench).
type BenchOutcome struct {
	Bench *bench.Benchmark
	Image *image.Image
	Meta  *image.Metadata
	Res   *core.Result
}

// RunBenchmarksWithConfig builds every registered benchmark and analyzes
// the whole suite as one batch (core.Shared.AnalyzeBatch): all images
// share ONE bounded worker pool of cfg.Workers, images whose snapshots
// probe fully warm decode without a pool token, and the outcomes come
// back in Table 2 order, deep-equal to a sequential per-image loop for
// every worker count.
func RunBenchmarksWithConfig(ctx context.Context, cfg core.Config) ([]*BenchOutcome, error) {
	benches := bench.All()
	outs := make([]*BenchOutcome, len(benches))
	for i, b := range benches {
		img, meta, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", b.Name, err)
		}
		outs[i] = &BenchOutcome{Bench: b, Image: img, Meta: meta}
	}
	imgs := make([]*image.Image, len(outs))
	for i, o := range outs {
		imgs[i] = o.Image
	}
	res, err := analyzeBatch(ctx, imgs, cfg, func(i int) string { return "bench " + benches[i].Name })
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		outs[i].Res = r
	}
	return outs, nil
}

// analyzeBatch analyzes imgs as one batch on a fresh shared pool of
// cfg.Workers and returns the results in input order, or the first
// failure in input order, prefixed with label(i).
func analyzeBatch(ctx context.Context, imgs []*image.Image, cfg core.Config, label func(i int) string) ([]*core.Result, error) {
	cfg.UseSLM = true
	res := make([]*core.Result, len(imgs))
	errs := make([]error, len(imgs))
	err := core.NewShared(cfg.Workers).AnalyzeBatch(ctx, imgs,
		func(int) core.Config { return cfg },
		func(i int, r *core.Result, _ core.Admission, err error) { res[i], errs[i] = r, err })
	if err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label(i), err)
		}
	}
	return res, nil
}

// RunAllWithConfig evaluates every registered benchmark in Table 2 order
// under a custom pipeline configuration (e.g. a fixed worker-pool size).
// The suite runs as one batch — cross-image concurrency on one shared
// pool — and the rows are identical to evaluating each benchmark alone.
func RunAllWithConfig(cfg core.Config) ([]*Row, error) {
	outs, err := RunBenchmarksWithConfig(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]*Row, len(outs))
	for i, o := range outs {
		r, err := Score(o.Bench, o.Image, o.Meta, o.Res)
		if err != nil {
			return nil, err
		}
		rows[i] = r
	}
	return rows, nil
}

// Table2 renders rows in the paper's layout: resolvable benchmarks above
// the line, unresolvable below, with the paper's reference values in
// parentheses.
func Table2(rows []*Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %6s | %18s %18s | %18s %18s\n",
		"Benchmark", "size(Kb)", "types",
		"w/o missing", "w/o added", "with missing", "with added")
	line := strings.Repeat("-", 120)
	fmt.Fprintln(&b, line)
	printed := false
	for i, r := range rows {
		if i > 0 && printed && !r.Resolvable && rows[i-1].Resolvable {
			fmt.Fprintln(&b, line)
		}
		printed = true
		cell := func(measured, paper float64) string {
			return fmt.Sprintf("%6.2f (paper %4.2f)", measured, paper)
		}
		fmt.Fprintf(&b, "%-18s %8.1f %6d | %s %s | %s %s\n",
			r.Name, r.SizeKB, r.Types,
			cell(r.WithoutMissing, r.Paper.WithoutMissing),
			cell(r.WithoutAdded, r.Paper.WithoutAdded),
			cell(r.WithMissing, r.Paper.WithMissing),
			cell(r.WithAdded, r.Paper.WithAdded))
	}
	return b.String()
}
