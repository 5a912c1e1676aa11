//go:build !race

package tpcc

const raceEnabled = false
