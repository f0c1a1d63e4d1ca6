package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/image"
)

// AccSchema identifies the ACC_synth.json report format.
const AccSchema = "rock-acc/v1"

// FamilyScore is the per-edge score restricted to one generated source
// family (classes sharing an "F<n>" name prefix).
type FamilyScore struct {
	Family string    `json:"family"`
	Types  int       `json:"types"`
	Edge   EdgeScore `json:"edge"`
}

// SynthRow is the scored outcome of one grid configuration.
type SynthRow struct {
	Name     string `json:"name"`
	Shape    string `json:"shape"`
	Mode     string `json:"mode"`
	Friendly bool   `json:"friendly"`
	// Types is the number of counted (primary, emitted) types.
	Types int `json:"types"`
	// Edge is the per-edge score over all counted types.
	Edge EdgeScore `json:"edge"`
	// Tier buckets Edge.F1 (excellent/good/fair/poor).
	Tier string `json:"tier"`
	// Families breaks the score down per generated source family.
	Families []FamilyScore `json:"families"`
}

// AccuracyReport is the rockbench -synth output (ACC_synth.json).
type AccuracyReport struct {
	Schema  string      `json:"schema"`
	Configs []*SynthRow `json:"configs"`
}

// RunSynthGrid builds every config of the adversarial grid, analyzes the
// images as one batch (one shared worker pool, same scheduling contract
// as the Table 2 suite), and scores each reconstruction per edge.
func RunSynthGrid(ctx context.Context, cfg core.Config) (*AccuracyReport, error) {
	grid := bench.SynthGrid()
	imgs := make([]*image.Image, len(grid))
	metas := make([]*image.Metadata, len(grid))
	for i, c := range grid {
		img, meta, err := c.Build()
		if err != nil {
			return nil, err
		}
		imgs[i], metas[i] = img, meta
	}
	res, err := analyzeBatch(ctx, imgs, cfg, func(i int) string { return "synth config " + grid[i].Name })
	if err != nil {
		return nil, err
	}
	rep := &AccuracyReport{Schema: AccSchema}
	for i, r := range res {
		row, err := ScoreSynth(grid[i], metas[i], r)
		if err != nil {
			return nil, err
		}
		rep.Configs = append(rep.Configs, row)
	}
	return rep, nil
}

// ScoreSynth scores one grid configuration's analysis result against its
// compiler-recorded ground truth.
func ScoreSynth(c *bench.SynthConfig, meta *image.Metadata, res *core.Result) (*SynthRow, error) {
	gt, err := GroundTruthForest(meta)
	if err != nil {
		return nil, fmt.Errorf("synth config %s: %w", c.Name, err)
	}
	var counted []uint64
	for _, tm := range meta.Types {
		if !tm.Secondary {
			counted = append(counted, tm.VTable)
		}
	}
	row := &SynthRow{
		Name:     c.Name,
		Shape:    c.Shape,
		Mode:     c.Mode,
		Friendly: c.Friendly,
		Types:    len(counted),
		Edge:     ScoreEdges(gt, res.Hierarchy, counted),
	}
	row.Tier = TierOf(row.Edge.F1)

	// Per-family breakdown, keyed by the generator's "F<n>" name prefix.
	byFam := map[string][]uint64{}
	for _, t := range counted {
		tm := meta.TypeByVTable(t)
		fam := familyOf(tm.Name)
		byFam[fam] = append(byFam[fam], t)
	}
	fams := make([]string, 0, len(byFam))
	for f := range byFam {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		ts := byFam[f]
		row.Families = append(row.Families, FamilyScore{
			Family: f,
			Types:  len(ts),
			Edge:   ScoreEdges(gt, res.Hierarchy, ts),
		})
	}
	return row, nil
}

// familyOf extracts the family label from a generated class name
// ("F3C17" -> "F3"); names outside the pattern form their own family.
func familyOf(name string) string {
	if strings.HasPrefix(name, "F") {
		if i := strings.IndexByte(name, 'C'); i > 1 {
			return name[:i]
		}
	}
	return name
}

// AccTable renders the report as an aligned text table.
func AccTable(rep *AccuracyReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s | %5s %5s %5s | %6s %6s %6s | %s\n",
		"config", "types", "tp", "fp", "fn", "prec", "rec", "f1", "tier")
	fmt.Fprintln(&b, strings.Repeat("-", 92))
	for _, r := range rep.Configs {
		fmt.Fprintf(&b, "%-24s %6d | %5d %5d %5d | %6.3f %6.3f %6.3f | %s\n",
			r.Name, r.Types, r.Edge.TP, r.Edge.FP, r.Edge.FN,
			r.Edge.Precision, r.Edge.Recall, r.Edge.F1, r.Tier)
	}
	return b.String()
}
