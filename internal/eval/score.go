package eval

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/hierarchy"
)

// EdgeScore is the per-edge confusion summary of one reconstruction: each
// counted type contributes its (ground-truth parent, predicted parent)
// pair. A matching pair is a true positive; a predicted edge that is
// absent or different in the ground truth is a false positive; a
// ground-truth edge that is absent or different in the prediction is a
// false negative (a wrong edge therefore counts once as each).
type EdgeScore struct {
	TP int `json:"tp"`
	FP int `json:"fp"`
	FN int `json:"fn"`

	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// finish derives the ratio metrics from the counts. An empty denominator
// scores 1.0: predicting no edges where none exist is exact.
func (s *EdgeScore) finish() {
	ratio := func(num, den int) float64 {
		if den == 0 {
			return 1.0
		}
		return float64(num) / float64(den)
	}
	s.Precision = ratio(s.TP, s.TP+s.FP)
	s.Recall = ratio(s.TP, s.TP+s.FN)
	if s.Precision+s.Recall == 0 {
		s.F1 = 0
	} else {
		s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
	}
}

// Accuracy tiers bucket an F1 score for at-a-glance reports.
const (
	TierExcellent = "excellent" // F1 >= 0.95
	TierGood      = "good"      // F1 >= 0.85
	TierFair      = "fair"      // F1 >= 0.70
	TierPoor      = "poor"      // below
)

// TierOf maps an F1 score to its accuracy tier.
func TierOf(f1 float64) string {
	switch {
	case f1 >= 0.95:
		return TierExcellent
	case f1 >= 0.85:
		return TierGood
	case f1 >= 0.70:
		return TierFair
	default:
		return TierPoor
	}
}

// ScoreEdges compares a predicted parent forest against the ground truth
// over the counted types.
func ScoreEdges(gt, pred *hierarchy.Forest, counted []uint64) EdgeScore {
	var s EdgeScore
	for _, t := range counted {
		gtP, gtOK := gt.Parent(t)
		var predP uint64
		predOK := false
		if pred != nil && pred.Has(t) {
			predP, predOK = pred.Parent(t)
		}
		switch {
		case gtOK && predOK && gtP == predP:
			s.TP++
		default:
			if predOK {
				s.FP++
			}
			if gtOK {
				s.FN++
			}
		}
	}
	s.finish()
	return s
}

// Floors is the checked-in accuracy baseline the CI gate compares a fresh
// AccuracyReport against.
type Floors struct {
	Schema string `json:"schema"`
	// MinF1 maps a grid config name to the minimum acceptable per-edge F1
	// of the SLM-only (paper default) configuration.
	MinF1 map[string]float64 `json:"min_f1"`
	// MinF1Fused maps a grid config name to the minimum acceptable
	// per-edge F1 of the fused slm+subtype configuration.
	MinF1Fused map[string]float64 `json:"min_f1_fused"`
}

// FloorsSchema identifies the floors file format: SLM-only and fused
// floors per grid config.
const FloorsSchema = "rock-acc-floors/v2"

// LoadFloors reads a floors file from disk.
func LoadFloors(path string) (*Floors, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f Floors
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("floors %s: %w", path, err)
	}
	if f.Schema != FloorsSchema {
		return nil, fmt.Errorf("floors %s: schema %q, want %q", path, f.Schema, FloorsSchema)
	}
	return &f, nil
}

// CheckFloors compares a report against the floors. It returns an error
// naming every regressed configuration (and every configuration missing a
// floor, so new grid cells cannot land ungated).
func CheckFloors(rep *AccuracyReport, floors *Floors) error {
	var problems []string
	for _, row := range rep.Configs {
		floor, ok := floors.MinF1[row.Name]
		if !ok {
			problems = append(problems,
				fmt.Sprintf("config %s (shape %s, mode %s) has no checked-in accuracy floor",
					row.Name, row.Shape, row.Mode))
			continue
		}
		if row.Edge.F1 < floor {
			problems = append(problems,
				fmt.Sprintf("config %s (shape %s, mode %s) regressed: per-edge F1 %.4f below floor %.4f",
					row.Name, row.Shape, row.Mode, row.Edge.F1, floor))
		}
	}
	// Stale floor entries are not errors (a removed config), but surface
	// them deterministically in the message when real problems exist.
	if len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	return fmt.Errorf("accuracy floor check failed:\n  %s", strings.Join(problems, "\n  "))
}

// CheckFusionFloors gates both halves of a fusion report against the
// floors: the SLM-only scores against MinF1 and the fused scores
// against MinF1Fused. A regression in either half — or a fused config
// with no fused floor — is an error.
func CheckFusionFloors(rep *FusionReport, floors *Floors) error {
	slmHalf := &AccuracyReport{Schema: AccSchema}
	for _, row := range rep.Configs {
		slmHalf.Configs = append(slmHalf.Configs, &SynthRow{
			Name: row.Name, Shape: row.Shape, Mode: row.Mode,
			Friendly: row.Friendly, Types: row.Types, Edge: row.SLM,
		})
	}
	slmErr := CheckFloors(slmHalf, floors)

	var problems []string
	for _, row := range rep.Configs {
		floor, ok := floors.MinF1Fused[row.Name]
		if !ok {
			problems = append(problems,
				fmt.Sprintf("config %s (shape %s, mode %s) has no checked-in fused accuracy floor",
					row.Name, row.Shape, row.Mode))
			continue
		}
		if row.Fused.F1 < floor {
			problems = append(problems,
				fmt.Sprintf("config %s (shape %s, mode %s) regressed: fused per-edge F1 %.4f below floor %.4f",
					row.Name, row.Shape, row.Mode, row.Fused.F1, floor))
		}
	}
	if slmErr == nil && len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	msg := strings.Join(problems, "\n  ")
	if slmErr != nil {
		if msg != "" {
			return fmt.Errorf("%w\n  %s", slmErr, msg)
		}
		return slmErr
	}
	return fmt.Errorf("fused accuracy floor check failed:\n  %s", msg)
}
