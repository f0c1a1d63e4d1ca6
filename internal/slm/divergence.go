package slm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/obs"
)

// Metric selects the pairwise type-distance criterion (§4.2.1 and the
// "Other Metrics" discussion of §6.4). The paper's algorithm only needs a
// ranking over candidate parents (Remark 4.1), so any of these can drive
// the arborescence; DKL is the one that works.
type Metric int

// Metrics.
const (
	// MetricKL is the Kullback–Leibler divergence D_KL(A || B), the paper's
	// choice: asymmetric, matching the inherently asymmetric parent/child
	// relation.
	MetricKL Metric = iota
	// MetricJSDivergence is the symmetric Jensen–Shannon divergence.
	MetricJSDivergence
	// MetricJSDistance is sqrt(JS-divergence), a true metric.
	MetricJSDistance
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricKL:
		return "DKL"
	case MetricJSDivergence:
		return "JS-divergence"
	case MetricJSDistance:
		return "JS-distance"
	}
	return fmt.Sprintf("metric(%d)", int(m))
}

// distFromLogProbs normalizes a log-probability vector into a proper
// distribution (max-shift, exponentiate, normalize; uniform fallback when
// every probability is zero, i.e. every log-probability is −Inf, where
// the shift itself would be −Inf − −Inf = NaN).
func distFromLogProbs(lps []float64) []float64 {
	ps := make([]float64, len(lps))
	maxLp := math.Inf(-1)
	for _, lp := range lps {
		if lp > maxLp {
			maxLp = lp
		}
	}
	if math.IsInf(maxLp, -1) {
		for i := range ps {
			ps[i] = 1 / float64(len(ps))
		}
		return ps
	}
	sum := 0.0
	for i := range lps {
		ps[i] = math.Exp(lps[i] - maxLp)
		sum += ps[i]
	}
	for i := range ps {
		ps[i] /= sum
	}
	return ps
}

// distEntry is one cached derivation: the normalized distribution, its
// log vector, and two scalars. logQ[i] is ln q'_i, where q' is the
// distribution with zeros floored at 1e-300 (what the KL kernel weighs
// against when the entry is the second argument). selfEnt is Σ_{p>0}
// p·ln p (the negated entropy of P), so D_KL(P‖Q) = selfEnt(P) − Σ_{p>0}
// p·logQ(Q) is one dot product per pair (see klEntries). logMin is the
// smallest logQ; since Σ_{p>0} p = 1, D_KL(P‖Q) ≤ selfEnt(P) − logMin(Q)
// — the per-pair bound in O(1) that the sparse sweep's root weight
// consumes.
type distEntry struct {
	ps      []float64
	logQ    []float64
	selfEnt float64
	logMin  float64
}

// newDistEntry derives a cache entry from a log-probability vector.
func newDistEntry(lps []float64) *distEntry {
	e := &distEntry{ps: distFromLogProbs(lps)}
	e.logQ = make([]float64, len(e.ps))
	minQ := math.Inf(1)
	for i, p := range e.ps {
		if p > 0 {
			e.logQ[i] = math.Log(p)
			e.selfEnt += p * e.logQ[i]
			if p < minQ {
				minQ = p
			}
		} else {
			e.logQ[i] = math.Log(1e-300)
			if minQ > 1e-300 {
				minQ = 1e-300
			}
		}
	}
	if len(e.ps) == 0 {
		e.logMin = 0
		return e
	}
	e.logMin = math.Log(minQ)
	return e
}

// klEntries is the divergence kernel over two derived entries:
// D_KL(P‖Q) = selfEnt(P) − Σ_{p>0} p·ln q', with no Log in the loop. It
// rounds differently from summing p·ln(p/q') term by term, so for P ≈ Q
// the difference can land a few ulps below zero; the clamp keeps it a
// valid (non-negative) edge weight. Identical distributions give exactly
// 0: the dot product then repeats selfEnt's sum term for term.
func klEntries(a, b *distEntry) float64 {
	cross := 0.0
	for i, p := range a.ps {
		if p > 0 {
			cross += p * b.logQ[i]
		}
	}
	return max(a.selfEnt-cross, 0)
}

// jsDist is the Jensen–Shannon kernel over two distributions.
func jsDist(pa, pb []float64) float64 {
	d := 0.0
	for i := range pa {
		m := (pa[i] + pb[i]) / 2
		if m <= 0 {
			continue
		}
		if pa[i] > 0 {
			d += 0.5 * pa[i] * math.Log(pa[i]/m)
		}
		if pb[i] > 0 {
			d += 0.5 * pb[i] * math.Log(pb[i]/m)
		}
	}
	return d
}

// DistanceCalculator computes pairwise model distances over one fixed word
// set, caching each model's word distribution so it is derived once per
// (model, word set) instead of once per pair. Deriving a distribution is
// the expensive part (PPM-C backoff per query); the divergence itself is
// a cheap reduction over the two cached vectors. A family of n types
// therefore pays n derivations instead of the 2·n·(n-1) a naive pairwise
// sweep performs.
//
// A derivation costs one model query per distinct gram of the word set,
// not one per word position: the calculator interns the word set's grams
// once per model depth (gramTable) and sums each word's gram
// log-probabilities in position order, which reproduces a per-position
// sum of queries bit for bit. The queries share work too: the trie is
// walked once per distinct gram history, and the PPM-C backoff below a
// context's first level (its escape chain) is derived once per deepest
// context node and reused by every gram that escapes there, so a query
// past the first level costs a binary search per level and one Log.
//
// The distance from A to B over the word set W is, for the paper's metric,
//
//	D_KL(A||B) = sum_{w in W} Pr(A_w) ln( Pr(A_w) / Pr(B_w) )
//
// where Pr(M_w) is model M's probability of word w normalized over W (the
// relative-entropy reading of §4.2.1: popular behaviours weigh more than
// rare ones), and the Jensen–Shannon divergence or its square root for
// the alternatives. Words are sequences over the models' shared alphabet.
//
// A calculator is safe for concurrent use: distributions may be warmed from
// several goroutines (Precompute) and Distance may be called concurrently.
// Every path derives a model's distribution with the same kernel, so the
// results do not depend on which path or goroutine derived it. Models are
// cached by identity.
type DistanceCalculator struct {
	metric Metric
	words  [][]int32
	obs    *obs.Bus

	// gmu guards tables, the word set's gram tables, one per model depth
	// met so far (a family's models normally share one depth).
	gmu    sync.Mutex
	tables []*gramTable

	mu    sync.Mutex
	cache map[*Frozen]*distEntry
}

// NewDistanceCalculator returns a calculator for the given metric and word
// set. The word set must not be mutated afterwards. Derivations draw
// their query scratch from the process-wide recycled set (sharedScratch).
func NewDistanceCalculator(metric Metric, words [][]int32) *DistanceCalculator {
	return &DistanceCalculator{
		metric: metric,
		words:  words,
		cache:  make(map[*Frozen]*distEntry),
	}
}

// Reserve prepares the calculator for deriving the distributions of ms:
// it sizes the distribution cache for len(ms) models, avoiding growth
// rehashes during the per-family precompute fan-out (a no-op once any
// distribution has been cached), and interns the word set's grams for
// every depth among ms, so the fan-out only reads the tables.
func (c *DistanceCalculator) Reserve(ms []*Frozen) {
	c.mu.Lock()
	if len(c.cache) == 0 && len(ms) > 0 {
		c.cache = make(map[*Frozen]*distEntry, len(ms))
	}
	c.mu.Unlock()
	for _, m := range ms {
		c.grams(m.depth)
	}
}

// SetObserver attaches an observer bus: every distribution lookup is then
// attributed as a memo hit (cached vector reused) or miss (derivation
// actually ran), each derivation adds the escape chains it built, and
// each gram table interned adds its distinct grams and word positions. A
// nil bus (the default) costs nothing.
func (c *DistanceCalculator) SetObserver(b *obs.Bus) { c.obs = b }

// Precompute derives and caches the word distribution of m. Calling it
// ahead of the pairwise sweep (possibly from several goroutines, one model
// each) makes every subsequent Distance a pure cache hit.
func (c *DistanceCalculator) Precompute(m *Frozen) { c.distribution(m) }

// grams returns the word set's gram table for models of the given depth,
// interning it on first use. Concurrent first uses of one depth wait for
// a single interning.
func (c *DistanceCalculator) grams(depth int) *gramTable {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	for _, t := range c.tables {
		if t.depth == depth {
			return t
		}
	}
	t := newGramTable(depth, c.words)
	c.tables = append(c.tables, t)
	c.obs.Add(obs.CntDistGrams, int64(len(t.grams)))
	c.obs.Add(obs.CntDistPositions, int64(len(t.rows)))
	return t
}

// PairBound returns an upper bound on the largest pairwise distance among
// distinct models of ms over the calculator's word set, at O(|ms|) cost
// given cached distributions (deriving any that are missing). The sparse
// sweep uses it to weight virtual-root edges without materializing the
// dense matrix: the Jensen–Shannon metrics are bounded by the constants
// ln 2 and √(ln 2), and D_KL(P‖Q) ≤ selfEnt(P) − logMin(Q) (see
// distEntry), maximized over ordered pairs by combining the two best
// per-model terms with an index guard. The scan order is ms order, so the
// bound is deterministic for a fixed ms.
func (c *DistanceCalculator) PairBound(ms []*Frozen) float64 {
	if len(c.words) == 0 || len(ms) < 2 {
		return 0
	}
	switch c.metric {
	case MetricJSDivergence:
		return math.Ln2
	case MetricJSDistance:
		return math.Sqrt(math.Ln2)
	}
	// KL: max over i≠j of selfEnt_i − logMin_j. The maximum is separable
	// except when one model holds both best terms, so tracking the top two
	// of each side suffices.
	bestA, secondA := math.Inf(-1), math.Inf(-1)
	bestB, secondB := math.Inf(1), math.Inf(1)
	bestAi, bestBi := -1, -1
	for i, m := range ms {
		e := c.distribution(m)
		if e.selfEnt > bestA {
			secondA = bestA
			bestA, bestAi = e.selfEnt, i
		} else if e.selfEnt > secondA {
			secondA = e.selfEnt
		}
		if e.logMin < bestB {
			secondB = bestB
			bestB, bestBi = e.logMin, i
		} else if e.logMin < secondB {
			secondB = e.logMin
		}
	}
	if bestAi != bestBi {
		return bestA - bestB
	}
	return max(bestA-secondB, secondA-bestB)
}

// distribution returns m's cached entry, deriving it on miss. The
// derivation runs outside the lock; if two goroutines race on the same
// model the loser discards its (identical) result.
func (c *DistanceCalculator) distribution(m *Frozen) *distEntry {
	c.mu.Lock()
	e, ok := c.cache[m]
	c.mu.Unlock()
	if ok {
		c.obs.Add(obs.CntDistMemoHits, 1)
		return e
	}
	c.obs.Add(obs.CntDistMemoMisses, 1)
	t := c.grams(m.depth)
	s := getScratch()
	lps, chains := s.logProbWords(m, t)
	e = newDistEntry(lps)
	putScratch(s)
	c.obs.Add(obs.CntDistChains, int64(chains))
	c.mu.Lock()
	if prev, ok := c.cache[m]; ok {
		e = prev
	} else {
		c.cache[m] = e
	}
	c.mu.Unlock()
	return e
}

// Distance returns the metric distance from a to b over the calculator's
// word set (0 over an empty word set).
func (c *DistanceCalculator) Distance(a, b *Frozen) float64 {
	if len(c.words) == 0 {
		return 0
	}
	ea, eb := c.distribution(a), c.distribution(b)
	switch c.metric {
	case MetricJSDivergence:
		return jsDist(ea.ps, eb.ps)
	case MetricJSDistance:
		return math.Sqrt(jsDist(ea.ps, eb.ps))
	default:
		return klEntries(ea, eb)
	}
}
