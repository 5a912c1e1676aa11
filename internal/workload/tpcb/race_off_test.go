//go:build !race

package tpcb

const raceEnabled = false
