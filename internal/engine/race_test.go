//go:build race

package engine

// raceEnabled reports a -race build. Its sync.Pool drops a random share of
// the objects put back, so allocation counts are not pinned under it.
const raceEnabled = true
