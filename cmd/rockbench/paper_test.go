package main

import (
	"bytes"
	"io"
	"os"
	"testing"

	"repro/internal/core"
)

// TestPaperFigureGoldens pins the §2 walk-through (-motivating) and the
// Fig. 8 model dump (-slmdump) byte for byte to their recorded output.
func TestPaperFigureGoldens(t *testing.T) {
	for _, c := range []struct {
		golden string
		run    func(io.Writer, core.Config)
	}{
		{"testdata/motivating.golden", runMotivating},
		{"testdata/slmdump.golden", runSLMDump},
	} {
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			cfg := core.DefaultConfig()
			cfg.Workers = workers
			var got bytes.Buffer
			c.run(&got, cfg)
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s (workers=%d) differs:\n%s", c.golden, workers, got.String())
			}
		}
	}
}
