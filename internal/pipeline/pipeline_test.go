package pipeline

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"repro/internal/obs"
)

func chain(t *testing.T) *Graph {
	t.Helper()
	g, err := New(
		Stage{Name: "a", Section: SecExtraction},
		Stage{Name: "b", Section: SecExtraction, Canon: "x=1"},
		Stage{Name: "c", Section: SecModels, Canon: "y=2"},
		Stage{Name: "d", Section: SecHierarchy},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestValidation(t *testing.T) {
	chain(t) // the happy path must validate

	cases := []struct {
		name   string
		stages []Stage
	}{
		{"section regression", []Stage{
			{Name: "a", Section: SecModels},
			{Name: "b", Section: SecExtraction},
		}},
		{"unnamed stage", []Stage{
			{},
		}},
		{"bad section", []Stage{
			{Name: "a", Section: NumSections},
		}},
	}
	for _, tc := range cases {
		if _, err := New(tc.stages...); err == nil {
			t.Errorf("%s: validated, want error", tc.name)
		}
	}
}

// TestSectionFingerprint pins the fingerprint construction: the section
// tag and the space-joined stage canons, hashed as tag|canons — the exact
// byte layout the legacy core scheme used, which existing .rsnap files
// were keyed with.
func TestSectionFingerprint(t *testing.T) {
	g := chain(t)
	want := sha256.Sum256([]byte("extract|x=1"))
	if got := g.SectionFingerprint(SecExtraction); got != want {
		t.Errorf("extraction fingerprint diverged from the legacy scheme")
	}
	want = sha256.Sum256([]byte("model|y=2"))
	if got := g.SectionFingerprint(SecModels); got != want {
		t.Errorf("models fingerprint diverged from the legacy scheme")
	}
	// A config-free section hashes the empty canon.
	want = sha256.Sum256([]byte("hier|"))
	if got := g.SectionFingerprint(SecHierarchy); got != want {
		t.Errorf("hierarchy fingerprint diverged from the legacy scheme")
	}
	fps := g.Fingerprints()
	for s := Section(0); s < NumSections; s++ {
		if fps[s] != g.SectionFingerprint(s) {
			t.Errorf("Fingerprints()[%s] mismatch", s.Tag())
		}
	}
	// Multiple canons in one section join with a single space.
	g2, err := New(
		Stage{Name: "a", Section: SecExtraction, Canon: "x=1"},
		Stage{Name: "b", Section: SecExtraction, Canon: "y=2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	want = sha256.Sum256([]byte("extract|x=1 y=2"))
	if got := g2.SectionFingerprint(SecExtraction); got != want {
		t.Errorf("joined canon fingerprint wrong")
	}
}

func TestSectionTagsAndLevels(t *testing.T) {
	// The tags are load-bearing snapshot-compat constants.
	for sec, tag := range map[Section]string{SecExtraction: "extract", SecModels: "model", SecHierarchy: "hier"} {
		if sec.Tag() != tag {
			t.Errorf("Section(%d).Tag() = %q, want %q", sec, sec.Tag(), tag)
		}
	}
	if SecExtraction.Level() != 1 || SecModels.Level() != 2 || SecHierarchy.Level() != 3 {
		t.Error("section levels diverged from the snapshot reuse levels")
	}
}

func TestExecute(t *testing.T) {
	var order []string
	mk := func(name string, sec Section, fail bool) Stage {
		return Stage{
			Name: name, Section: sec,
			Run: func(context.Context) error {
				order = append(order, name)
				if fail {
					return fmt.Errorf("%s exploded", name)
				}
				return nil
			},
		}
	}
	g, err := New(
		mk("a", SecExtraction, false),
		mk("b", SecModels, false),
		mk("c", SecHierarchy, false),
	)
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	status := func(st Stage) obs.StageStatus {
		if st.Name == "a" {
			return obs.StageCached
		}
		return obs.StageRan
	}
	if err := g.Execute(context.Background(), bus, status); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[b c]" {
		t.Fatalf("order = %v, want [b c]", order)
	}
	rep := bus.Report()
	if len(rep.Stages) != 3 || rep.Stages[0].Status != obs.StageCached ||
		rep.Stages[1].Status != obs.StageRan {
		t.Fatalf("stage records wrong: %+v", rep.Stages)
	}

	// A failing stage aborts and later stages never run.
	order = nil
	g2, err := New(
		mk("a", SecExtraction, false),
		mk("boom", SecModels, true),
		mk("c", SecHierarchy, false),
	)
	if err != nil {
		t.Fatal(err)
	}
	err = g2.Execute(context.Background(), nil, nil)
	if err == nil || !errors.Is(err, err) || err.Error() != "boom exploded" {
		t.Fatalf("err = %v", err)
	}
	if fmt.Sprint(order) != "[a boom]" {
		t.Fatalf("order = %v, want [a boom]", order)
	}
}
