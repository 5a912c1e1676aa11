//go:build race

package tpcc

// raceEnabled reports whether the race detector instruments this test
// binary; long storms run fewer transactions under it.
const raceEnabled = true
