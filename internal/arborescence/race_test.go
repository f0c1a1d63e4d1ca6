//go:build race

package arborescence

// The equivalence tests are single-goroutine and CPU-bound; under the
// race detector they draw fewer random graphs.
func init() { raceEnabled = true }
