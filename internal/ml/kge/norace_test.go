//go:build !race

package kge

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = false
