//go:build race

package tcp

// raceEnabled reports whether the race detector instrumented this build;
// allocation counts are skipped under it.
const raceEnabled = true
