package arborescence

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// MaxEnumSteps is exported to the external family-graph test
// (families_test.go).
const MaxEnumSteps = maxEnumSteps

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// SetEnumerateHook installs f as the hook EnumerateMinStates hands every
// graph to (nil removes it).
func SetEnumerateHook(f func(n, root int, edges []Edge, eps float64, limit int)) {
	enumerateHook = f
}

// CheckEnumerate runs enumerate and the reference on one input and reports
// the first difference: arbs (order included), weight (bit for bit),
// truncated and err must match, and the state count must equal the
// reference's steps when the budget held and equal the budget when it
// did not. It also returns the reference's steps.
func CheckEnumerate(n, root int, edges []Edge, eps float64, limit, maxSteps int) (int, error) {
	arbs, w, trunc, states, err := enumerate(n, root, edges, eps, limit, maxSteps)
	rArbs, rW, rTrunc, rSteps, rErr := refEnumerateMin(n, root, edges, eps, limit, maxSteps)
	switch {
	case (err == nil) != (rErr == nil) || err != nil && err.Error() != rErr.Error():
		return rSteps, fmt.Errorf("err %v, reference %v", err, rErr)
	case !reflect.DeepEqual(arbs, rArbs):
		return rSteps, fmt.Errorf("arbs %v, reference %v", arbs, rArbs)
	case math.Float64bits(w) != math.Float64bits(rW):
		return rSteps, fmt.Errorf("weight %v, reference %v", w, rW)
	case trunc != rTrunc:
		return rSteps, fmt.Errorf("truncated %v, reference %v", trunc, rTrunc)
	case rSteps <= maxSteps && states != rSteps:
		return rSteps, fmt.Errorf("%d states, reference %d", states, rSteps)
	case rSteps > maxSteps && states != maxSteps:
		return rSteps, fmt.Errorf("%d states past a budget of %d", states, maxSteps)
	}
	return rSteps, nil
}

// equivGraph draws a random graph on n nodes in one of several regimes
// the enumerator must reproduce exactly: coarse ties, zero weights,
// dominating root edges (the pipeline's shape), parallel edges long
// enough to need several 64-position chunks, unreachable nodes, and the
// odd NaN weight.
func equivGraph(rng *rand.Rand, n, root int) []Edge {
	var edges []Edge
	density := 0.2 + 0.7*rng.Float64()
	rootW := -1.0
	if rng.Intn(2) == 0 {
		rootW = 100 + float64(rng.Intn(300))
	}
	weight := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(3))
		case 2:
			return 1 + float64(rng.Intn(4))*1e-3
		}
		return 5 * rng.Float64()
	}
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		if rootW >= 0 {
			edges = append(edges, Edge{root, v, rootW})
		}
		for u := 0; u < n; u++ {
			if u != v && rng.Float64() < density {
				edges = append(edges, Edge{u, v, weight()})
			}
		}
	}
	switch rng.Intn(8) {
	case 0: // parallel edges, some in-lists past 64 entries
		for k, m := 0, 20+rng.Intn(150); k < m && len(edges) > 0; k++ {
			e := edges[rng.Intn(len(edges))]
			if rng.Intn(2) == 0 {
				e.W = weight()
			}
			edges = append(edges, e)
		}
	case 1: // an unreachable node
		v := rng.Intn(n)
		if v != root {
			kept := edges[:0]
			for _, e := range edges {
				if e.To != v {
					kept = append(kept, e)
				}
			}
			edges = kept
		}
	case 2: // a NaN weight
		if len(edges) > 0 {
			edges[rng.Intn(len(edges))].W = math.NaN()
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// TestEnumerateMatchesReference pins the bitmask search to the recursive
// reference over random graphs under every limit and budget. Where a
// limited search ends within a few thousand steps, it also places the
// budget exactly at, just below and just above that end, where only the
// calls counted after the limit was reached decide truncation. The
// pipeline's own family graphs are checked by
// TestEnumerateFamilyGraphsMatchReference.
func TestEnumerateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	limits := []int{2, 4, 64, 1 << 30}
	budgets := []int{50, 200, 1000, maxEnumSteps}
	trials := 300
	if testing.Short() || raceEnabled {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(12)
		if trial%8 == 0 {
			n = 2 + rng.Intn(31)
		}
		root := rng.Intn(n)
		edges := equivGraph(rng, n, root)
		eps := []float64{0, 1e-9, 1e-3}[rng.Intn(3)]
		check := func(limit, budget int) int {
			steps, err := CheckEnumerate(n, root, edges, eps, limit, budget)
			if err != nil {
				t.Fatalf("trial %d, n=%d root=%d eps=%g limit=%d budget=%d: %v\nedges: %v", trial, n, root, eps, limit, budget, err, edges)
			}
			return steps
		}
		for _, limit := range limits {
			steps := 0
			for _, budget := range budgets {
				steps = check(limit, budget)
			}
			if steps < 2 || steps > 5000 {
				continue
			}
			for _, budget := range []int{steps - 1, steps, steps + 1} {
				check(limit, budget)
			}
		}
	}
}

// TestEnumeratePlateauMatchesReference runs the budget-exhausting plateau
// of BenchmarkEnumeratePlateau through both enumerators at the full
// budget.
func TestEnumeratePlateauMatchesReference(t *testing.T) {
	for _, n := range []int{20, 26} {
		edges := plateauGraph(n)
		if _, err := CheckEnumerate(n, 0, edges, 1e-9, 64, maxEnumSteps); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		_, _, truncated, states, _ := enumerate(n, 0, edges, 1e-9, 64, maxEnumSteps)
		if !truncated || states != maxEnumSteps {
			t.Errorf("n=%d: plateau visited %d states (truncated %v), want the whole budget", n, states, truncated)
		}
	}
}
