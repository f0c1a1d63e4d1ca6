package evidence

import (
	"reflect"
	"testing"
)

func TestFusePassthrough(t *testing.T) {
	a := &Scores{Edge: []float64{1, 2}, Root: 9}
	// A single provider passes through untouched — pointer identity, so
	// its scores survive bit-identical, at any weight.
	for _, w := range []float64{1, 5} {
		if got := Fuse([]*Scores{a}, w); got != a {
			t.Errorf("single provider at weight %v was not passed through", w)
		}
	}
	if !reflect.DeepEqual(a.Edge, []float64{1, 2}) || a.Root != 9 {
		t.Error("passthrough modified its input")
	}
}

func TestFuseWeightedSum(t *testing.T) {
	a := &Scores{Edge: []float64{1, 2}, Root: 10}
	b := &Scores{Edge: []float64{0.5, 0.25}, Root: 4}
	got := Fuse([]*Scores{a, b}, 2)
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
	if !reflect.DeepEqual(a.Edge, []float64{1, 2}) || !reflect.DeepEqual(b.Edge, []float64{0.5, 0.25}) {
		t.Error("Fuse modified its inputs")
	}
}
