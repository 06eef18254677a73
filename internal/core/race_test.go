//go:build race

package core

// raceEnabled reports whether the race detector instrumented this build;
// gates on pooled message-path allocations are skipped under it (sync.Pool
// drops a share of its Puts in race mode).
const raceEnabled = true
