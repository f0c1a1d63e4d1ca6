package rock

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/obs"
)

// CorpusOptions configures a batch analysis over many images. The
// embedded Options apply to every image; Workers there is the capacity of
// the ONE shared worker pool all analyses draw from (not a per-image
// bound).
type CorpusOptions struct {
	Options
	// OnResult, when non-nil, streams each image's outcome as it completes
	// (completion order, serialized calls) — for progress display. The
	// final CorpusReport is always in input order regardless.
	OnResult func(CorpusItem)
	// Observe attaches a fresh Observer to every image's analysis, so each
	// CorpusItem (and its Report) carries per-stage Stats. Off by default —
	// the unobserved batch pays nothing.
	Observe bool
	// Trace, when non-nil, additionally draws every image's stages and
	// fan-out helpers as chrome-tracing spans on the shared sink (each
	// running image on its own lane, so corpus scheduling is visible in
	// Perfetto). Implies Observe for the images' buses.
	Trace *Trace
}

// CorpusItem is one image's outcome within a batch.
type CorpusItem struct {
	// Index is the image's position in the input slice.
	Index int
	// Report is the per-image analysis report; nil when Err is set.
	Report *Report
	// Err is this image's failure (other images are unaffected), or the
	// context error if cancellation aborted the image.
	Err error
	// Warm reports the image restored fully from its snapshot and bypassed
	// the analysis queue.
	Warm bool
	// Wait is how long the image queued before its work started: for its
	// pool token when cold, for a warm-decode slot when warm.
	Wait time.Duration
	// Stats is the image's per-stage observability record; nil unless
	// CorpusOptions.Observe (or Trace) was set. Same pointer as
	// Report.Stats.
	Stats *Stats
}

// CorpusReport aggregates a finished batch.
type CorpusReport struct {
	// Items holds the per-image outcomes in input order — identical to
	// analyzing each image alone, for every worker count.
	Items []CorpusItem
	// Warm counts the images that restored fully from their snapshots.
	Warm int
}

// AnalyzeCorpus analyzes many images as one batch over a shared bounded
// worker pool (core.Shared.AnalyzeBatch): one goroutine per image, cold
// analyses bounded by the pool tokens, cache-aware warm bypass (with a
// CacheDir, images whose snapshots probe fully warm decode without a pool
// token instead of queueing behind cold ones), and shared query scratch
// across analyses. Per-image results are deep-equal to AnalyzeImage run
// sequentially; the returned error is non-nil only when ctx was canceled.
func AnalyzeCorpus(ctx context.Context, images []*image.Image, opts CorpusOptions) (*CorpusReport, error) {
	cfg, err := config(opts.Options)
	if err != nil {
		return nil, err
	}
	n := len(images)
	metas := make([]*image.Metadata, n)
	stripped := make([]*image.Image, n)
	for i, img := range images {
		metas[i] = img.Meta
		stripped[i] = img
		if img.Meta != nil {
			stripped[i] = img.Strip()
		}
	}
	rep := &CorpusReport{Items: make([]CorpusItem, n)}
	buses := make([]*obs.Bus, n)
	// mu only serializes OnResult calls, as documented; it guards nothing
	// the callback could reach, so holding it across the call is safe.
	var mu sync.Mutex
	err = core.NewShared(opts.Workers).AnalyzeBatch(ctx, stripped,
		func(i int) core.Config {
			c := cfg
			if opts.Observe || opts.Trace != nil {
				buses[i] = obs.NewBus()
				buses[i].Trace = opts.Trace
				c.Obs = buses[i]
			}
			return c
		},
		func(i int, res *core.Result, ad core.Admission, err error) {
			it := CorpusItem{Index: i, Err: err, Warm: ad.Warm, Wait: ad.Wait}
			if err == nil {
				it.Report = buildReport(res, metas[i])
				it.Report.Stats = buses[i].Report() // nil-safe: unobserved batches stay nil
				it.Stats = it.Report.Stats
			}
			rep.Items[i] = it
			if opts.OnResult != nil {
				mu.Lock()
				opts.OnResult(it)
				mu.Unlock()
			}
		})
	if err != nil {
		return nil, err
	}
	for _, it := range rep.Items {
		if it.Warm {
			rep.Warm++
		}
	}
	return rep, nil
}
