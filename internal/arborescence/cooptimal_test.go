package arborescence

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

// tieGraph draws a random graph on n nodes in one of the regimes the
// co-optimal structure must get exactly right: coarse integer ties, zero
// weights, weights on a fine grid, dominating root edges (the pipeline's
// shape) and parallel edges.
func tieGraph(rng *rand.Rand, n, root int) []Edge {
	var edges []Edge
	density := 0.3 + 0.7*rng.Float64()
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
		return float64(rng.Intn(5)) / 4
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
	if rng.Intn(4) == 0 { // parallel edges
		for k, m := 0, 1+rng.Intn(8); k < m && len(edges) > 0; k++ {
			e := edges[rng.Intn(len(edges))]
			if rng.Intn(2) == 0 {
				e.W = weight()
			}
			edges = append(edges, e)
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// checkCertificate verifies sol's dual certificate independently of the
// solver's own bookkeeping: the sets are laminar and each comes after the
// sets it contains, every dual is non-negative, every reduced cost
// recomputed from the sets is at least -eps and matches sol.Reduced, the
// optimum's edges are tight, and the duals sum to the optimum's weight.
func checkCertificate(n, root int, edges []Edge, sol *Solution, eps float64) error {
	in := make([][]bool, len(sol.Sets))
	for i, s := range sol.Sets {
		in[i] = make([]bool, n)
		for _, v := range s {
			if v == root {
				return fmt.Errorf("set %v holds the root", s)
			}
			in[i][v] = true
		}
		for j := 0; j < i; j++ {
			inter, sub := false, true
			for _, v := range sol.Sets[j] {
				inter = inter || in[i][v]
				sub = sub && in[i][v]
			}
			if inter && !sub {
				return fmt.Errorf("sets %v and %v cross or are out of order", sol.Sets[j], s)
			}
		}
		if !(sol.Dual[i] >= 0) {
			return fmt.Errorf("set %v has dual %v", s, sol.Dual[i])
		}
	}
	tol := eps * (1 + math.Abs(sol.Weight))
	sum := 0.0
	for _, y := range sol.Dual {
		sum += y
	}
	if math.Abs(sum-sol.Weight) > tol {
		return fmt.Errorf("duals sum to %v, optimum weighs %v", sum, sol.Weight)
	}
	for k, e := range edges {
		if e.To == root || e.From == e.To {
			if !math.IsInf(sol.Reduced[k], 1) {
				return fmt.Errorf("unusable edge %v has reduced cost %v", e, sol.Reduced[k])
			}
			continue
		}
		rc := e.W
		for i := range sol.Sets {
			if in[i][e.To] && !in[i][e.From] {
				rc -= sol.Dual[i]
			}
		}
		if rc < -tol {
			return fmt.Errorf("edge %v has reduced cost %v", e, rc)
		}
		if math.Abs(rc-sol.Reduced[k]) > tol {
			return fmt.Errorf("edge %v: reduced cost %v, solver says %v", e, rc, sol.Reduced[k])
		}
		if sol.Parents[e.To] == e.From && rc > tol && !cheaperParallel(edges, e) {
			return fmt.Errorf("chosen edge %v has reduced cost %v", e, rc)
		}
	}
	return nil
}

// cheaperParallel reports whether a parallel edge undercuts e (the
// optimum then uses that one).
func cheaperParallel(edges []Edge, e Edge) bool {
	for _, f := range edges {
		if f.From == e.From && f.To == e.To && f.W < e.W {
			return true
		}
	}
	return false
}

// TestCoOptimalMatchesBruteForce pins the dual certificate and the exact
// count against exhaustive enumeration on random graphs of up to 7 nodes.
func TestCoOptimalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	const eps = 1e-9
	trials := 600
	if testing.Short() || raceEnabled {
		trials = 100
	}
	multi := 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(6)
		root := rng.Intn(n)
		edges := tieGraph(rng, n, root)
		want, w0, ok := bruteCoOptimal(n, root, edges, eps)
		sol, err := Solve(n, root, edges)
		if !ok {
			if err == nil {
				t.Fatalf("trial %d: solved a graph with no arborescence", trial)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(sol.Weight-w0) > eps {
			t.Fatalf("trial %d: weight %v, brute force %v", trial, sol.Weight, w0)
		}
		if err := checkCertificate(n, root, edges, sol, eps); err != nil {
			t.Fatalf("trial %d: %v\nedges: %v", trial, err, edges)
		}
		co := sol.CoOptimal(edges, eps)
		if got := co.Count(); !got.IsInt64() || got.Int64() != int64(len(want)) {
			t.Fatalf("trial %d: count %v, brute force lists %d\nedges: %v\nstructure: %+v", trial, got, len(want), edges, co)
		}
		if len(want) > 1 {
			multi++
		}
	}
	if multi < trials/10 {
		t.Fatalf("only %d of %d graphs have several optima; the generator lost its ties", multi, trials)
	}
}

// TestCoOptimalNearTies pins the eps rule: an edge is tight iff its
// reduced cost is at most eps, and a set binds iff its dual exceeds eps.
// A single alternative eps/2 above the optimum is co-optimal, one 2·eps
// above is not, and NaN weights are rejected. The rule is per edge: three
// independent alternatives 0.4·eps above the optimum all count, so the
// structure holds 8 arborescences where "within eps of the optimum" would
// hold 7.
func TestCoOptimalNearTies(t *testing.T) {
	const eps = 1e-9
	// Node v in 1..k hangs off the root at weight 1 in the optimum; its
	// alternative parent k+v costs d more. The nodes k+1..2k hang off the
	// root at 10.
	star := func(k int, d float64) []Edge {
		var edges []Edge
		for v := 1; v <= k; v++ {
			edges = append(edges, Edge{0, v, 1}, Edge{k + v, v, 1 + d}, Edge{0, k + v, 10})
		}
		return edges
	}
	for _, c := range []struct {
		k    int
		d    float64
		want int64
	}{
		{1, 0, 2}, {1, eps / 2, 2}, {1, 2 * eps, 1},
		{3, 0, 8}, {3, 0.4 * eps, 8}, {3, 2 * eps, 1},
	} {
		edges := star(c.k, c.d)
		sol, err := Solve(2*c.k+1, 0, edges)
		if err != nil {
			t.Fatal(err)
		}
		if got := sol.CoOptimal(edges, eps).Count(); got.Int64() != c.want {
			t.Errorf("k=%d d=%g: count %v, want %d", c.k, c.d, got, c.want)
		}
		brute, _, _ := bruteCoOptimal(2*c.k+1, 0, edges, eps)
		if c.k == 3 && c.d == 0.4*eps {
			if len(brute) != 7 {
				t.Errorf("within-eps brute force lists %d, want 7", len(brute))
			}
		} else if int64(len(brute)) != c.want {
			t.Errorf("k=%d d=%g: brute force lists %d, want %d", c.k, c.d, len(brute), c.want)
		}
	}
	if _, err := Solve(2, 0, []Edge{{0, 1, math.NaN()}}); err == nil {
		t.Error("a NaN weight was accepted")
	}
}

// TestCoOptimalPlateauCount pins the six-variant plateau: six nodes with
// zero-weight edges between every pair, entered from one parent at equal
// cost, admit 6 entries times 6^4 inner arborescences (Cayley).
func TestCoOptimalPlateauCount(t *testing.T) {
	for _, n := range []int{20, 26} {
		edges := plateauGraph(n)
		sol, err := Solve(n, 0, edges)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCertificate(n, 0, edges, sol, 1e-9); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := sol.CoOptimal(edges, 1e-9).Count(); got.Int64() != 7776 {
			t.Errorf("n=%d: count %v, want 7776", n, got)
		}
	}
}

// CheckCoOptimal solves one graph, checks its dual certificate, and
// returns the exact co-optimal count. With oracle set it also checks the
// structure against the forced-edge enumerator (forcedCoOptimal): the
// streamed set, every tally of a node with several tight parents, and the
// vote's survivors against refMajorityVote over the enumerated list.
func CheckCoOptimal(n, root int, edges []Edge, eps float64, oracle bool) (*big.Int, error) {
	sol, err := Solve(n, root, edges)
	if err != nil {
		return nil, err
	}
	if err := checkCertificate(n, root, edges, sol, eps); err != nil {
		return nil, err
	}
	co := sol.CoOptimal(edges, eps)
	count := co.Count()
	if !oracle {
		return count, nil
	}
	list, err := forcedCoOptimal(n, root, edges, eps)
	if err != nil {
		return nil, err
	}
	if got := stream(co); fmt.Sprint(got) != fmt.Sprint(list) {
		return nil, fmt.Errorf("count %v, streamed %d, forced-edge enumeration lists %d (sets differ)", count, len(got), len(list))
	}
	for v, ps := range co.Tight {
		for _, p := range ps {
			if len(ps) < 2 {
				break
			}
			want := 0
			for _, a := range list {
				if a[v] == p {
					want++
				}
			}
			if got := tally(co, v, p); got.Int64() != int64(want) {
				return nil, fmt.Errorf("tally(%d←%d) = %v, forced-edge enumeration %d", v, p, got, want)
			}
		}
	}
	want := refMajorityVote(list)
	sort.Slice(want, func(i, j int) bool { return lexLess(want[i], want[j]) })
	if got := stream(co.Vote()); fmt.Sprint(got) != fmt.Sprint(want) {
		return nil, fmt.Errorf("vote keeps %d, list vote over the forced-edge enumeration %d", len(got), len(want))
	}
	return count, nil
}

// RaceEnabled reports a build with the race detector to the external
// family-graph test.
func RaceEnabled() bool { return raceEnabled }

// TestDetMatchesLeibniz pins det, whose Bareiss steps run in int64 until
// a value does not fit, against the Leibniz expansion in math/big on
// random matrices with small, large and near-overflow entries.
func TestDetMatchesLeibniz(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var leibniz func(a [][]*big.Int, cols []int) *big.Int
	leibniz = func(a [][]*big.Int, cols []int) *big.Int {
		if len(cols) == 0 {
			return big.NewInt(1)
		}
		out, row := new(big.Int), len(a)-len(cols)
		for i, c := range cols {
			rest := append(append([]int(nil), cols[:i]...), cols[i+1:]...)
			term := new(big.Int).Mul(a[row][c], leibniz(a, rest))
			if i%2 == 1 {
				term.Neg(term)
			}
			out.Add(out, term)
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		d := rng.Intn(6)
		a := make([][]*big.Int, d)
		flat := make([]*big.Int, 0, d*d)
		cols := make([]int, d)
		for i := range a {
			cols[i] = i
			for j := 0; j < d; j++ {
				v := big.NewInt(int64(rng.Intn(7) - 3))
				switch rng.Intn(6) {
				case 0:
					v.Lsh(v, 40)
				case 1:
					v.Lsh(v, 61)
				}
				a[i] = append(a[i], v)
				flat = append(flat, new(big.Int).Set(v))
			}
		}
		if got, want := det(flat, d), leibniz(a, cols); got.Cmp(want) != 0 {
			t.Fatalf("trial %d: det %v, Leibniz %v\nmatrix %v", trial, got, want, a)
		}
	}
}
