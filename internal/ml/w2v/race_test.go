//go:build race

package w2v

// raceEnabled reports whether the race detector instrumented this build;
// timing gates are skipped under it.
const raceEnabled = true
