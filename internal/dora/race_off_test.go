//go:build !race

package dora

const raceEnabled = false
