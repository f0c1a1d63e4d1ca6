package obs

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestNilBusZeroAllocs is the zero-cost-when-nil guarantee: every call a
// disabled analysis makes on the bus must be allocation-free.
func TestNilBusZeroAllocs(t *testing.T) {
	var b *Bus
	ctx := context.Background()
	ctx = WithBus(ctx, b) // nil bus: must return ctx unchanged
	allocs := testing.AllocsPerRun(200, func() {
		h := b.StageStart("stage", "extract")
		h.End(nil)
		b.StageSkipped("stage", "extract", StageCached)
		b.Add(CntVTables, 1)
		b.SetSnapshotReuse(3)
		sp := b.Span("span")
		sp.End()
		hs := b.HelperSpan("helper")
		hs.End()
		if b.Report() != nil {
			t.Fatal("nil bus reported non-nil")
		}
		if got := BusFrom(ctx); got != nil {
			t.Fatal("nil bus came back from context")
		}
		if RegionFrom(ctx) != "" {
			t.Fatal("unexpected region")
		}
		if WithRegion(ctx, b, "x") != ctx {
			t.Fatal("WithRegion on nil bus must return ctx unchanged")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-bus hot path allocated %v times per run, want 0", allocs)
	}
}

func TestBusRecordsStagesAndCounters(t *testing.T) {
	b := NewBus()
	h := b.StageStart("disasm", "extract")
	time.Sleep(time.Millisecond)
	h.End(nil)
	b.StageSkipped("train", "model", StageCached)
	b.StageSkipped("hierarchy", "hier", StageOff)
	b.Add(CntVTables, 7)
	b.Add(CntVTables, 3)
	b.SetSnapshotReuse(2)

	rep := b.Report()
	if len(rep.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(rep.Stages))
	}
	if rep.Stages[0].Status != StageRan || rep.Stages[0].Wall <= 0 {
		t.Fatalf("ran stage not recorded: %+v", rep.Stages[0])
	}
	if rep.Stages[1].Status != StageCached || rep.Stages[2].Status != StageOff {
		t.Fatalf("skip statuses wrong: %+v", rep.Stages[1:])
	}
	if rep.Counters["vtables"] != 10 {
		t.Fatalf("vtables counter = %d, want 10", rep.Counters["vtables"])
	}
	if rep.SnapshotReuse != 2 {
		t.Fatalf("reuse = %d, want 2", rep.SnapshotReuse)
	}
	tbl := rep.Table()
	for _, want := range []string{"disasm", "cached", "off", "vtables=10"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not JSON-marshalable: %v", err)
	}
}

// TestTraceJSON checks the emitted trace is valid JSON in the Trace Event
// Format shape Perfetto ingests: an array of complete "X" events with
// name/ph/pid/tid/ts/dur.
func TestTraceJSON(t *testing.T) {
	tr := NewTrace()
	b := NewBus()
	b.Trace = tr
	sp := b.Span("analyze")
	inner := b.Span("disasm")
	inner.End()
	h := b.HelperSpan("train")
	h.End()
	sp.End()
	open := b.Span("left-open") // must be closed at write time
	_ = open

	var sb strings.Builder
	if _, err := tr.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	for _, e := range events {
		for _, k := range []string{"name", "cat", "ph", "pid", "tid", "ts", "dur"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event missing %q: %v", k, e)
			}
		}
		if e["ph"] != "X" {
			t.Fatalf("ph = %v, want X", e["ph"])
		}
		if d, ok := e["dur"].(float64); !ok || d < 0 {
			t.Fatalf("bad dur: %v", e["dur"])
		}
	}
}

// TestLaneReuse checks helper lanes are recycled: sequential helpers
// share one lane, concurrent ones get distinct lanes.
func TestLaneReuse(t *testing.T) {
	tr := NewTrace()
	a := tr.AcquireLane()
	bLane := tr.AcquireLane()
	if a == bLane {
		t.Fatalf("concurrent lanes collided: %d", a)
	}
	if a == 0 || bLane == 0 {
		t.Fatal("lane 0 must stay reserved for the primary timeline")
	}
	tr.ReleaseLane(a)
	if c := tr.AcquireLane(); c != a {
		t.Fatalf("released lane not reused: got %d, want %d", c, a)
	}
	tr.ReleaseLane(0) // must be a no-op
	if c := tr.AcquireLane(); c == 0 {
		t.Fatal("lane 0 leaked into the free-list")
	}
}

func TestContextPlumbing(t *testing.T) {
	b := NewBus()
	b.Trace = NewTrace()
	ctx := WithBus(context.Background(), b)
	if BusFrom(ctx) != b {
		t.Fatal("bus lost in context")
	}
	ctx = WithRegion(ctx, b, "train")
	if RegionFrom(ctx) != "train" {
		t.Fatalf("region = %q", RegionFrom(ctx))
	}
}

// TestCountersSaturate: a counter (co_optimal can count astronomically
// many hierarchies) stops at math.MaxInt64 instead of wrapping, on the
// bus and when reports are merged.
func TestCountersSaturate(t *testing.T) {
	b := NewBus()
	b.Add(CntCoOptimal, math.MaxInt64-1)
	b.Add(CntCoOptimal, 5)
	rep := b.Report()
	if got := rep.Counters["co_optimal"]; got != math.MaxInt64 {
		t.Fatalf("co_optimal = %d, want MaxInt64", got)
	}
	rep.Merge(rep)
	if got := rep.Counters["co_optimal"]; got != math.MaxInt64 {
		t.Fatalf("merged co_optimal = %d, want MaxInt64", got)
	}
}
