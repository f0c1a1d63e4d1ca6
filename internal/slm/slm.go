// Package slm implements the statistical language models of §3.1: n-gram
// models with smoothing and backoff ("variable-order n-gram models") based
// on prediction by partial matching, variant PPM-C. A model of maximum
// order D is a tree of contexts; querying backs off from the longest seen
// context through escape probabilities down to a uniform order -1 model
// over the alphabet:
//
//	Pr_k(sigma|s) = counts-based estimate       if s·sigma seen in training
//	              = 1/|Sigma|                   if |s| = 0 and sigma unseen
//	              = Pr(escape|s)·Pr_{k-1}(...)  otherwise
//
// Under PPM-C the escape mass of a context with n symbol occurrences over d
// distinct symbols is d/(n+d), and a seen symbol sigma has probability
// c(sigma)/(n+d).
//
// A model has one representation, the flat trie Frozen. A Trainer builds
// it straight from a type's encoded tracelets, a Querier answers
// allocation-free queries against it, and AppendBinary/DecodeFrozen
// persist it in snapshots.
//
// The package also measures the Kullback–Leibler divergence between two
// models over a word set (§4.2.1) and the JS-divergence/JS-distance
// variants the paper evaluates and rejects ("Other Metrics", §6.4),
// through a DistanceCalculator. The per-family divergence sweep that
// turns these metrics into hierarchy edge scores lives in internal/core's
// hierarchy stage; this package stays metric-only.
package slm
