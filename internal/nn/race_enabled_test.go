//go:build race

package nn

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation-count guards skip themselves.
const raceEnabled = true
