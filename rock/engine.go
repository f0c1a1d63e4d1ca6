package rock

import (
	"context"

	"repro/internal/core"
	"repro/internal/image"
)

// Engine is a long-lived analyzer for serving workloads: where each
// one-shot Analyze/AnalyzeImage call runs on a pool of its own, an Engine
// owns ONE shared bounded worker pool that every analysis it runs draws
// from, so concurrent requests compete for a fixed parallelism budget
// instead of each assuming it owns the machine — exactly the resource
// model of AnalyzeCorpus, but for an open-ended request stream instead of
// a fixed batch. The analysis daemon
// (internal/rockd) runs every submission through one Engine.
//
// An Engine is safe for concurrent use; results are identical to the
// one-shot entry points for every pool capacity and interleaving.
type Engine struct {
	cfg core.Config
	sh  *core.Shared
}

// NewEngine validates opts once and builds the shared execution state.
// Options.Observer is ignored — observation is per-request, passed to
// AnalyzeImage instead.
func NewEngine(opts Options) (*Engine, error) {
	opts.Observer = nil
	cfg, err := config(opts)
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, sh: core.NewShared(cfg.Workers)}, nil
}

// Workers returns the capacity of the engine's shared worker pool.
func (e *Engine) Workers() int { return e.sh.Workers() }

// ProbeWarm predicts, from the snapshot file's header alone, whether img
// would restore fully warm (no analysis, just a decode) under this
// engine's configuration. Advisory, like core.ProbeSnapshot: the real run
// still validates the checksummed snapshot.
func (e *Engine) ProbeWarm(img *image.Image) bool {
	return core.ProbeSnapshot(img, e.cfg)
}

// AnalyzeImage analyzes one image on the engine's shared pool under
// core.Shared's admission rule: cold work holds one pool token for its
// duration, so the number of concurrently running analyses never exceeds
// the pool capacity, while a fully-warm image decodes without one (a
// decode is not an analysis). o, when non-nil, observes just this
// request; its Stats land in Report.Stats. Metadata, if present, is
// stripped before analysis and used only to decorate the report.
func (e *Engine) AnalyzeImage(ctx context.Context, img *image.Image, o *Observer) (*Report, error) {
	c := e.cfg
	c.Obs = o
	return analyzeOn(ctx, e.sh, img, c)
}
