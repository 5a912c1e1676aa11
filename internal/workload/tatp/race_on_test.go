//go:build race

package tatp

// raceEnabled reports whether the race detector instruments this test
// binary; allocation counts differ under it.
const raceEnabled = true
