//go:build !race

package tatp

const raceEnabled = false
