package eval

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hierarchy"
)

func forest(t *testing.T, nodes []uint64, edges map[uint64]uint64) *hierarchy.Forest {
	t.Helper()
	f := hierarchy.NewForest(nodes)
	for c, p := range edges {
		if err := f.SetParent(c, p); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestScoreEdges(t *testing.T) {
	nodes := []uint64{1, 2, 3, 4}
	gt := forest(t, nodes, map[uint64]uint64{2: 1, 3: 1, 4: 3})

	t.Run("exact", func(t *testing.T) {
		pred := forest(t, nodes, map[uint64]uint64{2: 1, 3: 1, 4: 3})
		s := ScoreEdges(gt, pred, nodes)
		if s.TP != 3 || s.FP != 0 || s.FN != 0 || s.F1 != 1 {
			t.Errorf("exact reconstruction scored %+v", s)
		}
	})
	t.Run("wrong-parent", func(t *testing.T) {
		// 4 hangs off 2 instead of 3: one FP and one FN.
		pred := forest(t, nodes, map[uint64]uint64{2: 1, 3: 1, 4: 2})
		s := ScoreEdges(gt, pred, nodes)
		if s.TP != 2 || s.FP != 1 || s.FN != 1 {
			t.Errorf("wrong parent scored %+v", s)
		}
	})
	t.Run("missing-edge", func(t *testing.T) {
		pred := forest(t, nodes, map[uint64]uint64{2: 1, 3: 1})
		s := ScoreEdges(gt, pred, nodes)
		if s.TP != 2 || s.FP != 0 || s.FN != 1 {
			t.Errorf("missing edge scored %+v", s)
		}
		if s.Precision != 1 || s.Recall <= 0.66 || s.Recall >= 0.67 {
			t.Errorf("metrics %+v", s)
		}
	})
	t.Run("extra-edge", func(t *testing.T) {
		gtFlat := forest(t, nodes, map[uint64]uint64{2: 1})
		pred := forest(t, nodes, map[uint64]uint64{2: 1, 3: 1})
		s := ScoreEdges(gtFlat, pred, nodes)
		if s.TP != 1 || s.FP != 1 || s.FN != 0 {
			t.Errorf("extra edge scored %+v", s)
		}
	})
	t.Run("type-missing-from-prediction", func(t *testing.T) {
		pred := forest(t, []uint64{1, 2, 3}, map[uint64]uint64{2: 1, 3: 1})
		s := ScoreEdges(gt, pred, nodes)
		if s.TP != 2 || s.FN != 1 {
			t.Errorf("undiscovered type scored %+v", s)
		}
	})
	t.Run("empty", func(t *testing.T) {
		e := forest(t, []uint64{1}, nil)
		s := ScoreEdges(e, e, []uint64{1})
		if s.F1 != 1 {
			t.Errorf("trivially exact forest scored %+v", s)
		}
	})
}

func TestTierOf(t *testing.T) {
	cases := []struct {
		f1   float64
		want string
	}{
		{1.0, TierExcellent}, {0.95, TierExcellent},
		{0.94, TierGood}, {0.85, TierGood},
		{0.84, TierFair}, {0.70, TierFair},
		{0.69, TierPoor}, {0, TierPoor},
	}
	for _, c := range cases {
		if got := TierOf(c.f1); got != c.want {
			t.Errorf("TierOf(%v) = %s, want %s", c.f1, got, c.want)
		}
	}
}

func TestCheckFloors(t *testing.T) {
	rep := &AccuracyReport{Schema: AccSchema, Configs: []*SynthRow{
		{Name: "a/x", Shape: "a", Mode: "x", Edge: EdgeScore{F1: 0.9}},
		{Name: "a/y", Shape: "a", Mode: "y", Edge: EdgeScore{F1: 0.5}},
	}}
	ok := &Floors{Schema: FloorsSchema, MinF1: map[string]float64{"a/x": 0.9, "a/y": 0.5}}
	if err := CheckFloors(rep, ok); err != nil {
		t.Errorf("passing report rejected: %v", err)
	}
	regressed := &Floors{Schema: FloorsSchema, MinF1: map[string]float64{"a/x": 0.95, "a/y": 0.5}}
	err := CheckFloors(rep, regressed)
	if err == nil {
		t.Fatal("regression not detected")
	}
	if !strings.Contains(err.Error(), "a/x") || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("failure message does not name the regressed config: %v", err)
	}
	missing := &Floors{Schema: FloorsSchema, MinF1: map[string]float64{"a/x": 0.9}}
	err = CheckFloors(rep, missing)
	if err == nil || !strings.Contains(err.Error(), "a/y") || !strings.Contains(err.Error(), "no checked-in accuracy floor") {
		t.Errorf("missing floor not reported: %v", err)
	}
}

func TestLoadFloors(t *testing.T) {
	f, err := LoadFloors("testdata/acc_floors.json")
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != FloorsSchema || len(f.MinF1) == 0 || len(f.MinF1Fused) == 0 {
		t.Fatalf("bad floors: %+v", f)
	}
	// The SLM-only v1 schema is gone: its files no longer load.
	v1 := filepath.Join(t.TempDir(), "v1.json")
	if err := os.WriteFile(v1, []byte(`{"schema": "rock-acc-floors/v1", "min_f1": {"a/x": 0.5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFloors(v1); err == nil {
		t.Error("a rock-acc-floors/v1 file loaded")
	}
}
