//go:build race

package components

// raceEnabled reports whether the tests run under the race detector, which
// instruments allocations.
const raceEnabled = true
