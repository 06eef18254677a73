//go:build race

package kge

// raceEnabled reports whether the race detector instrumented this build;
// allocation gates are skipped under it.
const raceEnabled = true
