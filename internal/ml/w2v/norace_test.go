//go:build !race

package w2v

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = false
