//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation allocates
// on its own, so allocation bounds skip under it.
const raceEnabled = true
