// Package pipeline makes Rock's stage graph (§4 of the paper) a
// first-class architecture: each analysis phase is a Stage with a
// snapshot section and a canonical configuration rendering, and the
// graph is the single source of truth for the per-section configuration
// fingerprints that key the snapshot cache's staged-validity chain
// (internal/snapshot) and the corpus scheduler's warm-bypass probe.
//
// The graph is a straight chain: each stage reads what the stages before
// it produced, and the order of the stage list is the only dataflow
// declaration. New checks that every stage is named and that the stages
// belong to the persistable sections in order
//
//	extraction   disasm → vtables → tracelets → structural → alphabet
//	models       train (SLM training into the frozen form)
//	hierarchy    evidence → hierarchy (distances + arborescences) → multiparents
//
// A section's fingerprint hashes the concatenated canonical configuration
// of its stages under the section tag — byte-identical to the fingerprint
// scheme earlier releases hand-maintained in internal/core, so existing
// .rsnap caches keep validating.
//
// Execution (Execute) is a thin loop: stages run in declared order, each
// wrapped in the observer bus's stage record, with a per-stage status
// callback deciding whether a stage runs, was restored from a snapshot
// (cached), or is disabled by configuration (off).
package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"

	"repro/internal/obs"
)

// Section is a persistable group of consecutive stages — the unit of the
// snapshot cache's staged validity.
type Section int

// The snapshot sections, in dependency order.
const (
	// SecExtraction covers everything derived directly from the image:
	// disassembly, vtables, tracelets, structural results, alphabet.
	SecExtraction Section = iota
	// SecModels covers SLM training.
	SecModels
	// SecHierarchy covers distances, arborescences, and parent choices.
	SecHierarchy
	// NumSections is the section count (and the length of a fingerprint
	// chain).
	NumSections
)

// Tag returns the section's fingerprint domain tag. The spellings are
// load-bearing: they feed the fingerprint hashes and must not change, or
// every existing snapshot becomes invalid.
func (s Section) Tag() string {
	switch s {
	case SecExtraction:
		return "extract"
	case SecModels:
		return "model"
	case SecHierarchy:
		return "hier"
	}
	return fmt.Sprintf("section%d", int(s))
}

// Level returns the snapshot reuse level a valid section chain up to and
// including s supports (snapshot.LevelExtraction..LevelHierarchy).
func (s Section) Level() int { return int(s) + 1 }

// Stage is one pipeline phase.
type Stage struct {
	// Name identifies the stage in reports and traces.
	Name string
	// Section is the snapshot section the stage's outputs persist under.
	Section Section
	// Canon is the canonical rendering of exactly the configuration this
	// stage's output depends on ("" for config-free stages). Worker
	// counts and observers never appear — they cannot change results.
	Canon string
	// Run executes the stage. Nil in spec-only graphs (fingerprint
	// derivation, probes).
	Run func(ctx context.Context) error
}

// Graph is a validated stage chain.
type Graph struct {
	stages []Stage
}

// New validates the stage list and returns the graph: every stage must
// be named, and sections must be contiguous and non-decreasing so the
// staged-validity chain is meaningful.
func New(stages ...Stage) (*Graph, error) {
	prev := Section(0)
	for i, st := range stages {
		if st.Name == "" {
			return nil, fmt.Errorf("pipeline: stage %d has no name", i)
		}
		if st.Section < 0 || st.Section >= NumSections {
			return nil, fmt.Errorf("pipeline: stage %s: invalid section %d", st.Name, st.Section)
		}
		if st.Section < prev {
			return nil, fmt.Errorf("pipeline: stage %s: section %s after %s breaks the validity chain",
				st.Name, st.Section.Tag(), prev.Tag())
		}
		prev = st.Section
	}
	return &Graph{stages: stages}, nil
}

// Stages returns the stages in execution order.
func (g *Graph) Stages() []Stage { return g.stages }

// SectionFingerprint hashes one section's configuration: the section tag
// and the space-joined non-empty canonical renderings of its stages, in
// stage order. The construction reproduces the legacy hand-maintained
// fingerprints byte for byte (see TestFingerprintCompat in core).
func (g *Graph) SectionFingerprint(sec Section) [32]byte {
	var canons []string
	for _, st := range g.stages {
		if st.Section == sec && st.Canon != "" {
			canons = append(canons, st.Canon)
		}
	}
	return sha256.Sum256([]byte(sec.Tag() + "|" + strings.Join(canons, " ")))
}

// Fingerprints returns the full per-section fingerprint chain, indexed by
// Section — the snapshot key's configuration half.
func (g *Graph) Fingerprints() [NumSections][32]byte {
	var fps [NumSections][32]byte
	for s := Section(0); s < NumSections; s++ {
		fps[s] = g.SectionFingerprint(s)
	}
	return fps
}

// Execute runs the graph: stages execute in declared order, each recorded
// on the bus (nil bus: free). status, when non-nil, classifies each stage
// before it runs — StageRan executes it, StageCached / StageOff skip it
// and attribute why in the report. The first stage error aborts the run.
func (g *Graph) Execute(ctx context.Context, bus *obs.Bus, status func(Stage) obs.StageStatus) error {
	for i := range g.stages {
		st := &g.stages[i]
		s := obs.StageRan
		if status != nil {
			s = status(*st)
		}
		if s != obs.StageRan {
			bus.StageSkipped(st.Name, st.Section.Tag(), s)
			continue
		}
		h := bus.StageStart(st.Name, st.Section.Tag())
		err := st.Run(ctx)
		h.End(err)
		if err != nil {
			return err
		}
	}
	return nil
}
