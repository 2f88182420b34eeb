//go:build !race

package harness

// raceEnabled reports whether the tests run under the race detector, whose
// sync.Pool drops items at random.
const raceEnabled = false
