package evidence

import (
	"reflect"
	"testing"
)

func TestFusePassthrough(t *testing.T) {
	a := &Scores{Edge: []float64{1, 2}, Root: 9}
	b := &Scores{Edge: []float64{5, 5}, Root: 50}

	// A single provider at weight 1 passes through untouched — pointer
	// identity, so its scores survive bit-identical.
	if got := Fuse([]*Scores{a}, []float64{1}); got != a {
		t.Error("single provider at weight 1 was not passed through")
	}
	// Zero-weighted companions must not break the passthrough: this is
	// what makes {slm:1, subtype:0} bit-identical to pure SLM.
	if got := Fuse([]*Scores{a, b}, []float64{1, 0}); got != a {
		t.Error("zero-weighted companion broke the weight-1 passthrough")
	}
	// A single provider at a non-1 weight is a real weighted sum.
	got := Fuse([]*Scores{a}, []float64{2})
	if got == a || !reflect.DeepEqual(got.Edge, []float64{2, 4}) || got.Root != 18 {
		t.Errorf("single provider at weight 2: got %+v", got)
	}
}

func TestFuseWeightedSum(t *testing.T) {
	a := &Scores{Edge: []float64{1, 2}, Root: 10}
	b := &Scores{Edge: []float64{0.5, 0.25}, Root: 4}
	got := Fuse([]*Scores{a, b}, []float64{1, 2})
	want := []float64{1 + 2*0.5, 2 + 2*0.25}
	if !reflect.DeepEqual(got.Edge, want) {
		t.Errorf("Edge = %v, want %v", got.Edge, want)
	}
	if got.Root != 10+2*4 {
		t.Errorf("Root = %v, want 18", got.Root)
	}
	// The fused root keeps dominating every fused edge (Heuristic 4.1)
	// whenever each provider honors Root >= max Edge.
	for _, e := range got.Edge {
		if got.Root < e {
			t.Errorf("fused root %v below fused edge %v", got.Root, e)
		}
	}
}

func TestParseNames(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"slm", []string{"slm"}},
		{"slm,subtype", []string{"slm", "subtype"}},
		{" subtype , slm ", []string{"subtype", "slm"}},
	} {
		got, err := ParseNames(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseNames(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"slm,slm", "magic", "slm,,subtype"} {
		if _, err := ParseNames(bad); err == nil {
			t.Errorf("ParseNames(%q) accepted", bad)
		}
	}
}

func TestParseWeights(t *testing.T) {
	got, err := ParseWeights(" slm = 1 , subtype = 0.25 ")
	if err != nil || !reflect.DeepEqual(got, map[string]float64{"slm": 1, "subtype": 0.25}) {
		t.Fatalf("ParseWeights = %v, %v", got, err)
	}
	if got, err := ParseWeights(""); got != nil || err != nil {
		t.Errorf("empty input: %v, %v", got, err)
	}
	for _, bad := range []string{"slm", "slm=x", "magic=1", "slm=1,slm=2"} {
		if _, err := ParseWeights(bad); err == nil {
			t.Errorf("ParseWeights(%q) accepted", bad)
		}
	}
}

func TestKnownNames(t *testing.T) {
	for _, n := range KnownNames() {
		if !Known(n) {
			t.Errorf("KnownNames lists %q but Known rejects it", n)
		}
	}
	if Known("") || Known("slmkl") {
		t.Error("Known accepted a non-provider name")
	}
}
