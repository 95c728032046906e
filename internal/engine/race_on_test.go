//go:build race

package engine

// raceEnabled reports a -race build. The race detector slows this
// package's serial float loops about threefold, so a randomized test
// with nothing concurrent to check runs fewer trials under it.
const raceEnabled = true
