package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/evidence/subtype"
)

// FusionSchema identifies the ACC_fusion.json report format.
const FusionSchema = "rock-acc-fusion/v1"

// hardModes are the grid's compiler configurations that erase behavioral
// evidence — the cases fusion exists to improve (devirtualized
// monomorphic sites, COMDAT-folded methods, partially inlined ctors).
var hardModes = map[string]bool{"devirt": true, "comdat": true, "partial": true}

// FusionRow compares one grid configuration's SLM-only reconstruction
// against the fused slm+subtype one.
type FusionRow struct {
	Name     string `json:"name"`
	Shape    string `json:"shape"`
	Mode     string `json:"mode"`
	Friendly bool   `json:"friendly"`
	// Hard marks the behavioral-evidence-erasing modes.
	Hard  bool `json:"hard"`
	Types int  `json:"types"`
	// SLM is the per-edge score of the SLM-only (paper default) run.
	SLM EdgeScore `json:"slm"`
	// Fused is the per-edge score with the subtype scores fused in.
	Fused EdgeScore `json:"fused"`
	// Improved marks a strictly higher fused F1.
	Improved bool `json:"improved"`
}

// FusionReport is the rockbench -fusion accuracy output.
type FusionReport struct {
	Schema string `json:"schema"`
	// Weights records the fusion weights the fused half used.
	Weights map[string]float64 `json:"weights"`
	Configs []*FusionRow       `json:"configs"`
	// Improved counts configurations whose fused F1 is strictly higher;
	// HardImproved restricts the count to the hard modes.
	Improved     int `json:"improved"`
	HardImproved int `json:"hard_improved"`
}

// RunFusionGrid runs the adversarial grid twice — once under the paper's
// SLM-only configuration and once with the subtype scores fused in —
// and pairs the per-config scores. Both halves run through the corpus
// batch engine with cfg's worker budget.
func RunFusionGrid(ctx context.Context, cfg core.Config) (*FusionReport, error) {
	cfg.Subtype = false
	slmRep, err := RunSynthGrid(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("slm-only grid: %w", err)
	}
	cfg.Subtype = true
	fusedRep, err := RunSynthGrid(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("fused grid: %w", err)
	}
	if len(slmRep.Configs) != len(fusedRep.Configs) {
		return nil, fmt.Errorf("grid halves disagree: %d vs %d configs", len(slmRep.Configs), len(fusedRep.Configs))
	}
	rep := &FusionReport{Schema: FusionSchema, Weights: map[string]float64{
		"slm":     1,
		"subtype": subtype.DefaultWeight,
	}}
	for i, s := range slmRep.Configs {
		f := fusedRep.Configs[i]
		if s.Name != f.Name {
			return nil, fmt.Errorf("grid halves disagree at %d: %s vs %s", i, s.Name, f.Name)
		}
		row := &FusionRow{
			Name:     s.Name,
			Shape:    s.Shape,
			Mode:     s.Mode,
			Friendly: s.Friendly,
			Hard:     hardModes[s.Mode],
			Types:    s.Types,
			SLM:      s.Edge,
			Fused:    f.Edge,
			Improved: f.Edge.F1 > s.Edge.F1,
		}
		if row.Improved {
			rep.Improved++
			if row.Hard {
				rep.HardImproved++
			}
		}
		rep.Configs = append(rep.Configs, row)
	}
	return rep, nil
}

// CheckFusion enforces the fusion acceptance contract: the fused F1 must
// not fall below the SLM-only F1 on any configuration, and must be
// strictly higher on at least minHardImproved hard-mode configurations.
func CheckFusion(rep *FusionReport, minHardImproved int) error {
	var problems []string
	for _, row := range rep.Configs {
		if row.Fused.F1 < row.SLM.F1 {
			problems = append(problems,
				fmt.Sprintf("config %s: fused F1 %.4f below slm-only %.4f",
					row.Name, row.Fused.F1, row.SLM.F1))
		}
	}
	if rep.HardImproved < minHardImproved {
		problems = append(problems,
			fmt.Sprintf("only %d hard-mode configs improved, want >= %d", rep.HardImproved, minHardImproved))
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("fusion check failed:\n  %s", strings.Join(problems, "\n  "))
}

// FusionTable renders the report as an aligned text table.
func FusionTable(rep *FusionReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s | %8s %8s | %s\n", "config", "types", "slm-f1", "fused-f1", "delta")
	fmt.Fprintln(&b, strings.Repeat("-", 68))
	for _, r := range rep.Configs {
		mark := ""
		if r.Hard {
			mark = " (hard)"
		}
		fmt.Fprintf(&b, "%-24s %6d | %8.3f %8.3f | %+.3f%s\n",
			r.Name, r.Types, r.SLM.F1, r.Fused.F1, r.Fused.F1-r.SLM.F1, mark)
	}
	fmt.Fprintf(&b, "improved %d/%d configs (%d hard)\n", rep.Improved, len(rep.Configs), rep.HardImproved)
	return b.String()
}
