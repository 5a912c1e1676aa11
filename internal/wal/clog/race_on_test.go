//go:build race

package clog

// raceEnabled reports whether the race detector instruments this test
// binary; allocation-count assertions skip themselves under it.
const raceEnabled = true
