package arborescence

import "sort"

// refEnumerateMin is the recursive branch-and-bound that EnumerateMin
// replaced, kept as the executable specification of its search: nodes in
// index order, each node's in-edges cheapest first, one state per call,
// and per call the checks budget, then limit, then bound, then leaf. It
// also returns the number of calls made (steps), which keeps counting
// after the limit is reached and after the budget is exceeded — exactly
// the original's accounting. enumerate must reproduce its arbs, weight,
// truncated and err bit for bit, and its step count whenever the budget
// was not exceeded.
func refEnumerateMin(n, root int, edges []Edge, eps float64, limit, maxSteps int) (arbs [][]int, weight float64, truncated bool, steps int, err error) {
	best, w0, err := MinArborescence(n, root, edges)
	if err != nil {
		return nil, 0, false, 0, err
	}
	if limit <= 1 {
		return [][]int{best}, w0, false, 0, nil
	}
	if n > maxEnumNodes {
		return [][]int{best}, w0, true, 0, nil
	}

	in := make([][]Edge, n)
	for _, e := range edges {
		if e.To == root || e.From == e.To {
			continue
		}
		in[e.To] = append(in[e.To], e)
	}
	nodes := []int{}
	minW := make([]float64, n)
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		sort.Slice(in[v], func(i, j int) bool { return in[v][i].W < in[v][j].W })
		nodes = append(nodes, v)
		if len(in[v]) > 0 {
			minW[v] = in[v][0].W
		}
	}
	lb := make([]float64, len(nodes)+1)
	for i := len(nodes) - 1; i >= 0; i-- {
		lb[i] = lb[i+1] + minW[nodes[i]]
	}

	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var out [][]int
	var rec func(pos int, acc float64)
	rec = func(pos int, acc float64) {
		steps++
		if steps > maxSteps {
			truncated = true
			return
		}
		if len(out) >= limit {
			return
		}
		if acc+lb[pos] > w0+eps {
			return
		}
		if pos == len(nodes) {
			out = append(out, append([]int(nil), parent...))
			return
		}
		v := nodes[pos]
		for _, e := range in[v] {
			if acc+e.W+lb[pos+1] > w0+eps {
				break
			}
			cyc := false
			for u := e.From; u != -1 && u != root; u = parent[u] {
				if u == v {
					cyc = true
					break
				}
			}
			if cyc {
				continue
			}
			parent[v] = e.From
			rec(pos+1, acc+e.W)
			parent[v] = -1
		}
	}
	rec(0, 0)
	if len(out) == 0 {
		out = [][]int{best}
	}
	return out, w0, truncated, steps, nil
}
