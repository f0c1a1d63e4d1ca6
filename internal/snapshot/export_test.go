package snapshot

// MatchReference exposes matchReference to the external tests, which
// check Decode against the reference decoder on the snapshots core
// writes.
var MatchReference = matchReference
