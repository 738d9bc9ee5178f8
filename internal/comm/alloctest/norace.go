//go:build !race

package alloctest

const raceEnabled = false
