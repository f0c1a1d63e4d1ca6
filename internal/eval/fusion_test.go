package eval

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestFusionGrid pins the fusion acceptance contract on the adversarial
// grid: fusing the subtype scores with the SLM sweep at default
// weights must never score below the SLM-only run on any configuration,
// must strictly improve at least 3 hard-mode configurations
// (devirt/comdat/partial — the modes that erase behavioral evidence),
// must keep every friendly configuration at exact F1 1.0, and must clear
// the checked-in v2 floors for both halves.
func TestFusionGrid(t *testing.T) {
	rep, err := RunFusionGrid(context.Background(), core.DefaultConfig())
	if err != nil {
		t.Fatalf("fusion grid: %v", err)
	}
	t.Logf("\n%s", FusionTable(rep))
	if err := CheckFusion(rep, 3); err != nil {
		t.Error(err)
	}
	for _, row := range rep.Configs {
		if row.Friendly && row.Fused.F1 != 1.0 {
			t.Errorf("friendly config %s: fused F1 %.4f, want exactly 1.0 (fusion must not disturb solved configs)",
				row.Name, row.Fused.F1)
		}
	}
	floors, err := LoadFloors("testdata/acc_floors.json")
	if err != nil {
		t.Fatalf("loading floors: %v", err)
	}
	if err := CheckFusionFloors(rep, floors); err != nil {
		t.Error(err)
	}
}
