//go:build !race

package sm

const raceEnabled = false
