//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation adds
// allocations that the allocation ceilings must budget for.
const raceEnabled = true
