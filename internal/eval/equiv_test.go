package eval

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/image"
)

// analyzeWith runs one image with or without the subtype evidence.
func analyzeWith(t *testing.T, label string, img *image.Image, workers int, subtype bool) *core.Result {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	cfg.Subtype = subtype
	res, err := core.Analyze(img, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res
}

// assertProviderEquivalence pins both evidence configurations on one
// image: the default (SLM-only) run and the fused one must each be
// deep-equal across a serial and a contended worker count.
func assertProviderEquivalence(t *testing.T, label string, img *image.Image) {
	t.Helper()
	slm1 := analyzeWith(t, label+"/slm/w1", img, 1, false)
	slm8 := analyzeWith(t, label+"/slm/w8", img, 8, false)
	if !reflect.DeepEqual(slm1, slm8) {
		t.Errorf("%s: SLM-only result differs between workers 1 and 8", label)
	}
	fused1 := analyzeWith(t, label+"/fused/w1", img, 1, true)
	fused8 := analyzeWith(t, label+"/fused/w8", img, 8, true)
	if !reflect.DeepEqual(fused1, fused8) {
		t.Errorf("%s: fused result differs between workers 1 and 8", label)
	}
}

// TestProviderEquivalenceTable2 pins the refactor across the whole
// Table 2 suite.
func TestProviderEquivalenceTable2(t *testing.T) {
	for _, b := range bench.All() {
		img, _, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		assertProviderEquivalence(t, b.Name, img)
	}
}

// TestProviderEquivalenceSynth extends the pin to the adversarial corner
// of the input space: every hostile configuration of the synth grid,
// where candidate sets are noisiest and the subtype scorer sees the most
// degenerate vtable structure.
func TestProviderEquivalenceSynth(t *testing.T) {
	ran := 0
	for _, c := range bench.SynthGrid() {
		if c.Friendly {
			continue
		}
		img, _, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		assertProviderEquivalence(t, c.Name, img)
		ran++
	}
	if ran < 5 {
		t.Fatalf("only %d adversarial configs exercised, want >= 5", ran)
	}
}
