//go:build race

package main

// raceEnabled: the race detector slows the smoke run several times over, so
// its time budget is not checked.
const raceEnabled = true
