//go:build race

package fleet

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation-count guards skip themselves.
const raceEnabled = true
