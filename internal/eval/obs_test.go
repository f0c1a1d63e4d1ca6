package eval

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestObserverEquivalence pins the observability bus's core contract on
// the full Table 2 suite: an analysis recorded on a bus (with a trace
// sink attached, the most invasive configuration) produces a Result
// deep-equal to the unobserved run — observation may measure, never
// steer. It also sanity-checks that the record is actually populated:
// every pipeline stage reported, and the headline counters non-zero.
func TestObserverEquivalence(t *testing.T) {
	wantStages := []string{"disasm", "vtables", "tracelets", "structural", "alphabet",
		"train", "evidence:slm", "hierarchy", "multiparents"}
	ctx := context.Background()
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatalf("bench %s: build: %v", b.Name, err)
		}
		cfg := core.DefaultConfig()
		plain, err := core.AnalyzeContext(ctx, img, cfg)
		if err != nil {
			t.Fatalf("bench %s: unobserved analysis: %v", b.Name, err)
		}

		observed := cfg
		observed.Obs = obs.NewBus()
		observed.Obs.Trace = obs.NewTrace()
		got, err := core.AnalyzeContext(ctx, img, observed)
		if err != nil {
			t.Fatalf("bench %s: observed analysis: %v", b.Name, err)
		}
		if !reflect.DeepEqual(plain, got) {
			t.Errorf("bench %s: observed Result diverged from the unobserved one", b.Name)
		}

		// The 8 pipeline stages plus the aggregate SLM/KL sweep row
		// ("evidence:slm") the hierarchy fan-out emits, in record order.
		rep := observed.Obs.Report()
		var names []string
		for _, st := range rep.Stages {
			names = append(names, st.Name)
		}
		if !reflect.DeepEqual(names, wantStages) {
			t.Errorf("bench %s: stage records %v, want %v", b.Name, names, wantStages)
		}
		for _, st := range rep.Stages {
			if st.Status != obs.StageRan || st.Failed {
				t.Errorf("bench %s: stage %s recorded %s/failed=%v, want ran", b.Name, st.Name, st.Status, st.Failed)
			}
		}
		if rep.Counters["vtables"] == 0 || rep.Counters["models"] == 0 {
			t.Errorf("bench %s: headline counters empty: %v", b.Name, rep.Counters)
		}
	}
}
