package rock

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/disasm"
	"repro/internal/objtrace"
	"repro/internal/pool"
	"repro/internal/vtable"
)

// TestReportDeterminismAcrossWorkers is the core guard for the parallel
// pipeline: analyzing every Table 2 benchmark with Workers: 1 (the fully
// serial path) and Workers: 8 must produce deep-equal Reports — same
// types, families, candidate relations, edges, and multi-parent sets. The
// parallel stages write only to index-owned slots and are merged in a
// fixed order, so any divergence is a scheduling-dependent bug.
func TestReportDeterminismAcrossWorkers(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			img, _, err := b.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			serial, err := AnalyzeImage(img, Options{Workers: 1})
			if err != nil {
				t.Fatalf("serial analysis: %v", err)
			}
			parallel, err := AnalyzeImage(img, Options{Workers: 8})
			if err != nil {
				t.Fatalf("parallel analysis: %v", err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				diffReports(t, serial, parallel)
			}
		})
	}
}

// TestSynthDeterminismAcrossWorkers extends the worker-count guard beyond
// the 19 hand-written benchmarks to the procedurally generated adversarial
// grid: one config per generator shape, each under a different hard-case
// compiler mode, analyzed at Workers 1 vs 8.
func TestSynthDeterminismAcrossWorkers(t *testing.T) {
	names := []string{
		"deep/devirt",
		"wide/opt",
		"diamond/opt",
		"split/comdat",
		"interleaved/partial",
	}
	for _, name := range names {
		c := bench.SynthByName(name)
		if c == nil {
			t.Fatalf("unknown synth config %q", name)
		}
		t.Run(name, func(t *testing.T) {
			img, _, err := c.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			serial, err := AnalyzeImage(img, Options{Workers: 1})
			if err != nil {
				t.Fatalf("serial analysis: %v", err)
			}
			parallel, err := AnalyzeImage(img, Options{Workers: 8})
			if err != nil {
				t.Fatalf("parallel analysis: %v", err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				diffReports(t, serial, parallel)
			}
		})
	}
}

// TestExtractDeterminismAcrossWorkers pins the parallel front end in
// isolation: objtrace.Extract serially (nil pool) and on an 8-token pool
// must produce deep-equal Results — tracelet multisets, raw sequences,
// structural observations in function order, and function→vtable
// attributions — on every Table 2 benchmark. Per-function execution writes to index-owned
// slots and the merge (including cross-function dedup) runs serially in
// function order, so the output is byte-identical for any pool capacity.
func TestExtractDeterminismAcrossWorkers(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			img, _, err := b.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			fns, err := disasm.All(img)
			if err != nil {
				t.Fatalf("disasm: %v", err)
			}
			vts := vtable.Discover(img, fns)
			cfg := objtrace.DefaultConfig()
			serial := objtrace.Extract(img, fns, vts, cfg)
			cfg.Pool = pool.NewShared(8)
			parallel := objtrace.Extract(img, fns, vts, cfg)
			if reflect.DeepEqual(serial, parallel) {
				return
			}
			check := func(name string, a, b any) {
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s diverged between the nil pool and an 8-token pool", name)
				}
			}
			check("PerType", serial.PerType, parallel.PerType)
			check("RawPerType", serial.RawPerType, parallel.RawPerType)
			check("Structs", serial.Structs, parallel.Structs)
			check("FnVTables", serial.FnVTables, parallel.FnVTables)
		})
	}
}

// diffReports reports which Report fields diverged, field by field, so a
// determinism regression names the guilty pipeline stage instead of
// printing two opaque structs.
func diffReports(t *testing.T, serial, parallel *Report) {
	t.Helper()
	check := func(name string, a, b any) {
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s diverged between Workers:1 and Workers:8\n serial:   %v\n parallel: %v", name, a, b)
		}
	}
	check("Types", serial.Types, parallel.Types)
	check("Families", serial.Families, parallel.Families)
	check("PossibleParents", serial.PossibleParents, parallel.PossibleParents)
	check("StructurallyResolved", serial.StructurallyResolved, parallel.StructurallyResolved)
	check("Edges", serial.Edges, parallel.Edges)
	check("MultiParents", serial.MultiParents, parallel.MultiParents)
	check("GroundTruthEdges", serial.GroundTruthEdges, parallel.GroundTruthEdges)
	if !t.Failed() {
		t.Errorf("reports diverged in an unexported field")
	}
}
