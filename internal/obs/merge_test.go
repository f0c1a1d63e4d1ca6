package obs

import (
	"sync"
	"testing"
	"time"
)

// TestBusConcurrentReadWhileInFlight is the /metrics contract: a bus may
// be Report()ed from other goroutines while an analysis is still
// recording stages and counters on it. Run under -race (CI does), the
// test proves the snapshot path is properly synchronized; the assertions
// check the mid-flight reads are consistent prefixes (stage count only
// grows, counters only grow).
func TestBusConcurrentReadWhileInFlight(t *testing.T) {
	bus := NewBus()
	const (
		writers  = 4
		readers  = 4
		perGorou = 200
	)
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < perGorou; i++ {
				h := bus.StageStart("stage", "sec")
				bus.Add(CntVTables, 1)
				bus.Add(CntModels, 2)
				h.End(nil)
				bus.StageSkipped("skipped", "sec", StageCached)
				bus.SetSnapshotReuse(i % 4)
			}
		}()
	}
	stop := make(chan struct{})
	errs := make(chan string, readers)
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			prevStages := 0
			var prevVT int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep := bus.Report()
				if len(rep.Stages) < prevStages {
					errs <- "stage list shrank between mid-flight reads"
					return
				}
				prevStages = len(rep.Stages)
				if vt := rep.Counters["vtables"]; vt < prevVT {
					errs <- "counter went backwards between mid-flight reads"
					return
				} else {
					prevVT = vt
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	rep := bus.Report()
	wantStages := writers * perGorou * 2 // one ran + one skipped per iteration
	if len(rep.Stages) != wantStages {
		t.Fatalf("got %d stage records, want %d", len(rep.Stages), wantStages)
	}
	if got, want := rep.Counters["vtables"], int64(writers*perGorou); got != want {
		t.Fatalf("vtables counter = %d, want %d", got, want)
	}
	if got, want := rep.Counters["models"], int64(2*writers*perGorou); got != want {
		t.Fatalf("models counter = %d, want %d", got, want)
	}
}

func TestReportMerge(t *testing.T) {
	a := &Report{
		Total:         10 * time.Millisecond,
		SnapshotReuse: 1,
		Stages: []StageStats{
			{Name: "train", Section: "models", Status: StageRan, Wall: 5 * time.Millisecond, AllocBytes: 100, Allocs: 10},
			{Name: "hierarchy", Section: "hierarchy", Status: StageCached},
		},
		Counters: map[string]int64{"vtables": 3},
	}
	b := &Report{
		Total:         20 * time.Millisecond,
		SnapshotReuse: 3,
		Stages: []StageStats{
			{Name: "train", Section: "models", Status: StageRan, Wall: 7 * time.Millisecond, AllocBytes: 50, Allocs: 5},
			{Name: "train", Section: "models", Status: StageCached},
			{Name: "disasm", Section: "extraction", Status: StageRan, Wall: time.Millisecond},
		},
		Counters: map[string]int64{"vtables": 2, "models": 4},
	}
	agg := &Report{}
	agg.Merge(a)
	agg.Merge(b)
	agg.Merge(nil) // no-op

	if agg.Total != 30*time.Millisecond {
		t.Fatalf("Total = %v, want 30ms", agg.Total)
	}
	if agg.SnapshotReuse != 3 {
		t.Fatalf("SnapshotReuse = %d, want max 3", agg.SnapshotReuse)
	}
	find := func(name string, status StageStatus) *StageStats {
		for i := range agg.Stages {
			if agg.Stages[i].Name == name && agg.Stages[i].Status == status {
				return &agg.Stages[i]
			}
		}
		t.Fatalf("stage %q status %v missing from aggregate", name, status)
		return nil
	}
	trainRan := find("train", StageRan)
	if trainRan.Count != 2 || trainRan.Wall != 12*time.Millisecond ||
		trainRan.AllocBytes != 150 || trainRan.Allocs != 15 {
		t.Fatalf("train(ran) aggregate wrong: %+v", *trainRan)
	}
	if find("train", StageCached).Count != 1 {
		t.Fatalf("train(cached) should count 1")
	}
	if find("hierarchy", StageCached).Count != 1 {
		t.Fatalf("hierarchy(cached) should count 1")
	}
	if agg.Counters["vtables"] != 5 || agg.Counters["models"] != 4 {
		t.Fatalf("counters aggregate wrong: %v", agg.Counters)
	}
}

// TestReportMergeProviderStages pins the per-scorer attribution rows:
// caller-built evidence:NAME records (StageRecord) from several analyses
// merge per scorer — Count accumulates the per-run family totals, wall
// and allocation columns sum — and never collapse into each other or
// into the pipeline's own stage rows.
func TestReportMergeProviderStages(t *testing.T) {
	runA := &Report{Stages: []StageStats{
		{Name: "hierarchy", Section: "hierarchy", Status: StageRan, Wall: time.Millisecond},
		{Name: "evidence:slm", Section: "hierarchy", Status: StageRan, Wall: 2 * time.Millisecond, AllocBytes: 10, Count: 3},
		{Name: "evidence:subtype", Section: "hierarchy", Status: StageRan, Wall: time.Millisecond, AllocBytes: 4, Count: 3},
	}}
	runB := &Report{Stages: []StageStats{
		{Name: "hierarchy", Section: "hierarchy", Status: StageRan, Wall: time.Millisecond},
		{Name: "evidence:slm", Section: "hierarchy", Status: StageRan, Wall: 3 * time.Millisecond, AllocBytes: 20, Count: 5},
		{Name: "evidence:subtype", Section: "hierarchy", Status: StageRan, Wall: time.Millisecond, AllocBytes: 6, Count: 5},
	}}
	agg := &Report{}
	agg.Merge(runA)
	agg.Merge(runB)

	if len(agg.Stages) != 3 {
		t.Fatalf("got %d aggregate rows, want hierarchy + one per scorer: %+v", len(agg.Stages), agg.Stages)
	}
	find := func(name string) *StageStats {
		for i := range agg.Stages {
			if agg.Stages[i].Name == name {
				return &agg.Stages[i]
			}
		}
		t.Fatalf("row %q missing from aggregate", name)
		return nil
	}
	slm := find("evidence:slm")
	if slm.Count != 8 || slm.Wall != 5*time.Millisecond || slm.AllocBytes != 30 {
		t.Fatalf("evidence:slm aggregate wrong: %+v", *slm)
	}
	st := find("evidence:subtype")
	if st.Count != 8 || st.Wall != 2*time.Millisecond || st.AllocBytes != 10 {
		t.Fatalf("evidence:subtype aggregate wrong: %+v", *st)
	}
	if hier := find("hierarchy"); hier.Count != 2 {
		t.Fatalf("hierarchy row should count both runs: %+v", *hier)
	}
}
