//go:build !race

package clog

const raceEnabled = false
