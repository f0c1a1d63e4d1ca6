package arborescence

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// stream collects every arborescence c.Each yields, sorted.
func stream(c *CoOptimal) [][]int {
	var out [][]int
	c.Each(func(p []int) bool {
		out = append(out, append([]int(nil), p...))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return lexLess(out[i], out[j]) })
	return out
}

func coOptimal(t *testing.T, n, root int, edges []Edge) (*Solution, *CoOptimal) {
	t.Helper()
	sol, err := Solve(n, root, edges)
	if err != nil {
		t.Fatal(err)
	}
	return sol, sol.CoOptimal(edges, 1e-9)
}

func TestEnumerateFindsAllCoOptimal(t *testing.T) {
	// Diamond with two equally-cheap parents for node 3.
	edges := []Edge{
		{0, 1, 1}, {0, 2, 1},
		{1, 3, 2}, {2, 3, 2},
	}
	sol, co := coOptimal(t, 4, 0, edges)
	if sol.Weight != 4 {
		t.Fatalf("weight %v, want 4", sol.Weight)
	}
	got := stream(co)
	want := [][]int{{-1, 0, 0, 1}, {-1, 0, 0, 2}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("streamed %v, want %v", got, want)
	}
	if c := co.Count(); c.Int64() != 2 {
		t.Fatalf("count %v, want 2", c)
	}
}

// TestEnumerateRespectsLimit: the stream stops as soon as its callback
// says so, and run to the end it yields the whole plateau of a 5-node
// zero-weight clique entered from the root (5 entries times 5^3 inner
// arborescences), each once.
func TestEnumerateRespectsLimit(t *testing.T) {
	var edges []Edge
	for v := 1; v <= 5; v++ {
		edges = append(edges, Edge{0, v, 1})
		for u := 1; u <= 5; u++ {
			if u != v {
				edges = append(edges, Edge{u, v, 0})
			}
		}
	}
	_, co := coOptimal(t, 6, 0, edges)
	calls := 0
	co.Each(func([]int) bool {
		calls++
		return calls < 8
	})
	if calls != 8 {
		t.Fatalf("stream made %d calls after being told to stop at 8", calls)
	}
	all := stream(co)
	if len(all) != 625 || co.Count().Int64() != 625 {
		t.Fatalf("streamed %d, counted %v, want 625", len(all), co.Count())
	}
	for i, a := range all {
		if i > 0 && !lexLess(all[i-1], a) {
			t.Fatalf("arborescence %v streamed twice", a)
		}
		if !co.Contains(a) {
			t.Fatalf("streamed %v is not in the structure", a)
		}
	}
}

// TestEnumerateWeightsAreMinimal: property — every streamed arborescence
// has exactly the minimum weight, and the stream matches the count.
func TestEnumerateWeightsAreMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(4)
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := 1; v < n; v++ {
				if u != v && rng.Float64() < 0.8 {
					edges = append(edges, Edge{u, v, float64(rng.Intn(4))})
				}
			}
		}
		want, ok := BruteForceMin(n, 0, edges)
		sol, err := Solve(n, 0, edges)
		if !ok {
			if err == nil {
				t.Fatalf("trial %d: should be unreachable", trial)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(sol.Weight-want) > 1e-9 {
			t.Fatalf("trial %d: min %v != brute %v", trial, sol.Weight, want)
		}
		co := sol.CoOptimal(edges, 1e-9)
		all := stream(co)
		if int64(len(all)) != co.Count().Int64() {
			t.Fatalf("trial %d: streamed %d, counted %v", trial, len(all), co.Count())
		}
		for _, a := range all {
			sum := 0.0
			for v := 1; v < n; v++ {
				if a[v] < 0 {
					t.Fatalf("trial %d: node %d unparented in %v", trial, v, a)
				}
				sum += bestEdgeWeight(edges, a[v], v)
			}
			if sum > want+1e-9 {
				t.Fatalf("trial %d: streamed weight %v exceeds minimum %v (%v)", trial, sum, want, a)
			}
		}
	}
}

func TestMajorityVote(t *testing.T) {
	// The list oracle: two say parent(1)=2, one says parent(1)=3.
	arbs := [][]int{
		{-1, 2, 0, 0},
		{-1, 2, 0, 0},
		{-1, 3, 0, 0},
	}
	if out := refMajorityVote(arbs); len(out) != 2 || out[0][1] != 2 || out[1][1] != 2 {
		t.Fatalf("list vote kept %v, want the 2 majority hierarchies", out)
	}
	if out := refMajorityVote(arbs[1:]); len(out) != 2 {
		t.Errorf("tie should be returned unreduced, got %d", len(out))
	}

	// On the structure: a zero-weight path 1–2–3 (both directions)
	// entered from the root at equal cost has three co-optimal
	// arborescences, one per entry. Node 1's parent is 2 in two of them
	// and node 3's parent is 2 in two: node 1, first in index order, leads
	// with a strict majority and the vote restricts it to parent 2. Then
	// every tally ties and the two arborescences entered at 2 and at 3
	// survive.
	edges := []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 2, 0}, {2, 1, 0}, {2, 3, 0}, {3, 2, 0}}
	_, co := coOptimal(t, 4, 0, edges)
	if got := fmt.Sprint(stream(co.Vote())); got != "[[-1 2 0 2] [-1 2 3 0]]" {
		t.Fatalf("vote keeps %s", got)
	}
	checkVote(t, "path", 4, 0, edges, co)
}

// checkVote pins co's tallies, Vote survivors and Count against the
// brute-force list and refMajorityVote.
func checkVote(t *testing.T, label string, n, root int, edges []Edge, co *CoOptimal) {
	t.Helper()
	list, _, _ := bruteCoOptimal(n, root, edges, 1e-9)
	if got := co.Count(); !got.IsInt64() || got.Int64() != int64(len(list)) {
		t.Fatalf("%s: count %v, brute force %d", label, got, len(list))
	}
	for v := 0; v < n; v++ {
		for p := -1; p < n; p++ {
			want := 0
			for _, a := range list {
				if a[v] == p {
					want++
				}
			}
			if v == root || p < 0 {
				continue
			}
			if got := tally(co, v, p); got.Int64() != int64(want) {
				t.Fatalf("%s: tally(%d←%d) = %v, brute force %d", label, v, p, got, want)
			}
		}
	}
	want := refMajorityVote(list)
	sort.Slice(want, func(i, j int) bool { return lexLess(want[i], want[j]) })
	kept := co.Vote()
	if got := stream(kept); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: vote keeps %v, list oracle %v", label, got, want)
	}
	if kept.Count().Int64() != int64(len(want)) {
		t.Fatalf("%s: survivors count %v, list oracle %d", label, kept.Count(), len(want))
	}
}

// TestEnumerateReportsTruncation: nothing truncates any more. A 40-node
// graph, past the old search's 32-node limit, is handled exactly: 38
// nodes each hang off the root or off node 1 at equal cost, so 2^38
// arborescences are co-optimal, every tally ties, and the vote keeps
// them all. Counts past int64 stay exact.
func TestEnumerateReportsTruncation(t *testing.T) {
	edges := []Edge{{0, 1, 1}}
	for v := 2; v < 40; v++ {
		edges = append(edges, Edge{0, v, 1}, Edge{1, v, 1})
	}
	_, co := coOptimal(t, 40, 0, edges)
	want := new(big.Int).Lsh(big.NewInt(1), 38)
	if got := co.Count(); got.Cmp(want) != 0 {
		t.Fatalf("count %v, want 2^38", got)
	}
	if got := tally(co, 7, 1); got.Cmp(new(big.Int).Rsh(want, 1)) != 0 {
		t.Fatalf("tally %v, want 2^37", got)
	}
	if got := co.Vote().Count(); got.Cmp(want) != 0 {
		t.Fatalf("vote kept %v, want all 2^38", got)
	}

	// Past int64: a 25-node zero-weight clique entered from the root at
	// equal cost has 25 entries times 25^23 inner arborescences (Cayley),
	// so the determinants leave int64 and are redone with math/big.
	edges = nil
	for v := 1; v <= 25; v++ {
		edges = append(edges, Edge{0, v, 1})
		for u := 1; u <= 25; u++ {
			if u != v {
				edges = append(edges, Edge{u, v, 0})
			}
		}
	}
	_, co = coOptimal(t, 26, 0, edges)
	want = new(big.Int).Exp(big.NewInt(25), big.NewInt(24), nil)
	if got := co.Count(); got.Cmp(want) != 0 {
		t.Fatalf("count %v, want 25^24 = %v", got, want)
	}
}

// TestMajorityVoteOrderInsensitive: the surviving set must not depend on
// the order of the input edges, although Edmonds' optimum and its duals
// may.
func TestMajorityVoteOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(7)
		edges := tieGraph(rng, n, 0)
		sol, err := Solve(n, 0, edges)
		if err != nil {
			continue
		}
		want := fmt.Sprint(stream(sol.CoOptimal(edges, 1e-9).Vote()))
		for shuffle := 0; shuffle < 4; shuffle++ {
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			sol, err := Solve(n, 0, edges)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(stream(sol.CoOptimal(edges, 1e-9).Vote())); got != want {
				t.Fatalf("trial %d: survivors depend on edge order\n got: %v\nwant: %v", trial, got, want)
			}
		}
	}
}

// TestEnumerateMatchesReference pins the exact structure to the
// brute-force oracles over random tie graphs: the count, every edge
// tally, the streamed set and the vote's survivors (against
// refMajorityVote over the full list), and that Edmonds' optimum is one
// of the co-optimal arborescences.
func TestEnumerateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	trials := 400
	if testing.Short() || raceEnabled {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(6)
		root := rng.Intn(n)
		edges := tieGraph(rng, n, root)
		sol, err := Solve(n, root, edges)
		if err != nil {
			continue
		}
		co := sol.CoOptimal(edges, 1e-9)
		label := fmt.Sprintf("trial %d (n=%d root=%d edges %v)", trial, n, root, edges)
		list, _, _ := bruteCoOptimal(n, root, edges, 1e-9)
		if got := stream(co); fmt.Sprint(got) != fmt.Sprint(list) {
			t.Fatalf("%s: streams %v, brute force %v", label, got, list)
		}
		if !co.Contains(sol.Parents) {
			t.Fatalf("%s: the optimum %v is not co-optimal", label, sol.Parents)
		}
		checkVote(t, label, n, root, edges, co)
	}
}

// TestEnumeratePlateauMatchesReference runs the six-variant plateaus of
// BenchmarkCoOptimalPlateau: the stream lists 7,776 distinct
// arborescences, each in the structure, the vote ties everywhere and
// keeps them all, and (outside -short and -race) the forced-edge
// enumerator lists the same set.
func TestEnumeratePlateauMatchesReference(t *testing.T) {
	for _, n := range []int{20, 26} {
		edges := plateauGraph(n)
		sol, co := coOptimal(t, n, 0, edges)
		all := stream(co)
		if len(all) != 7776 {
			t.Fatalf("n=%d: streamed %d, want 7776", n, len(all))
		}
		for i, a := range all {
			if i > 0 && !lexLess(all[i-1], a) || !co.Contains(a) {
				t.Fatalf("n=%d: bad stream entry %v", n, a)
			}
		}
		if !co.Contains(sol.Parents) {
			t.Fatalf("n=%d: optimum not co-optimal", n)
		}
		if got := co.Vote().Count().Int64(); got != 7776 {
			t.Fatalf("n=%d: vote kept %d, want all 7776", n, got)
		}
		if testing.Short() || raceEnabled {
			continue
		}
		want, err := forcedCoOptimal(n, 0, edges, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(all) != fmt.Sprint(want) {
			t.Fatalf("n=%d: stream differs from the forced-edge enumeration (%d vs %d)", n, len(all), len(want))
		}
	}
}
