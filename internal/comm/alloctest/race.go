//go:build race

package alloctest

// RaceEnabled: the race detector is compiled in.
const RaceEnabled = true
