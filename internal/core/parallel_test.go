package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/synth"
)

// TestAnalyzeWorkerCountInvariance asserts the tentpole guarantee at the
// core.Result level (deeper than the rock.Report view): the full pairwise
// distance matrix, family outcomes including co-optimal arborescence sets
// and weights, hierarchy, and multi-parent choices are identical for
// serial and parallel runs.
func TestAnalyzeWorkerCountInvariance(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	cfg := DefaultConfig()
	cfg.Workers = 1
	serial, err := Analyze(img, cfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		par, err := Analyze(img, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial.Dist, par.Dist) {
			t.Errorf("workers=%d: Dist diverged", workers)
		}
		if !reflect.DeepEqual(serial.Families, par.Families) {
			t.Errorf("workers=%d: Families diverged", workers)
		}
		if !reflect.DeepEqual(serial.MultiParents, par.MultiParents) {
			t.Errorf("workers=%d: MultiParents diverged", workers)
		}
		for _, ty := range serial.VTables {
			sp, sok := serial.Hierarchy.Parent(ty.Addr)
			pp, pok := par.Hierarchy.Parent(ty.Addr)
			if sok != pok || sp != pp {
				t.Errorf("workers=%d: parent of 0x%x diverged", workers, ty.Addr)
			}
		}
	}
}

// TestOneShotBoundsConcurrency: a one-shot AnalyzeContext at Workers: W
// runs on a pool of its own with W tokens, so the analysis goroutine plus
// the fan-out helpers open at any instant — nested fan-outs included,
// the family fan-out around each family's chunked distance sweep — never
// exceed W. Helper spans are drawn while a helper holds its token, so the
// trace's peak of open helper spans bounds the helpers actually running.
func TestOneShotBoundsConcurrency(t *testing.T) {
	p := synth.DefaultParams(1)
	p.Families, p.MaxDepth, p.MaxBranch, p.UseReps = 3, 5, 4, 2
	prog, _ := synth.Generate(p)
	img, _ := buildStripped(t, prog, compiler.DefaultOptions())
	for _, workers := range []int{2, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Obs = obs.NewBus()
		cfg.Obs.Trace = obs.NewTrace()
		res, err := AnalyzeContext(context.Background(), img, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Families larger than the sweep's model grain (modelGrain)
		// split into several chunks, so their sweep fans out again.
		large := 0
		for _, fam := range res.Structural.Families {
			if len(fam) > modelGrain {
				large++
			}
		}
		if large < 2 {
			t.Fatalf("only %d families exceed the sweep grain %d; the image cannot nest fan-outs", large, modelGrain)
		}
		peak, helpers := peakHelpers(t, cfg.Obs.Trace)
		if helpers == 0 {
			t.Fatalf("workers=%d: no fan-out won a helper", workers)
		}
		if 1+peak > workers {
			t.Errorf("workers=%d: 1 analysis goroutine + %d open helpers exceed the bound", workers, peak)
		}
	}
}

// peakHelpers reads a chrome trace and returns the most fan-out helper
// spans open at once and the number of helper spans seen.
func peakHelpers(t *testing.T, tr *obs.Trace) (peak, helpers int) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Cat     string
		Ts, Dur float64
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	type edge struct {
		at    float64
		delta int
	}
	var edges []edge
	for _, e := range events {
		if e.Cat == "fanout" {
			helpers++
			edges = append(edges, edge{e.Ts, 1}, edge{e.Ts + e.Dur, -1})
		}
	}
	// Ends sort before starts at equal times: a token released and taken
	// again at the same instant is not an overlap.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	cur := 0
	for _, e := range edges {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak, helpers
}
