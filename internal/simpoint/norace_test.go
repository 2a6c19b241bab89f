//go:build !race

package simpoint

const raceEnabled = false
