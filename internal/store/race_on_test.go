//go:build race

package store

// raceEnabled reports a -race build, whose instrumentation allocates
// on its own, so allocation bounds skip under it.
const raceEnabled = true
