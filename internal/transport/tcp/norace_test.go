//go:build !race

package tcp

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = false
