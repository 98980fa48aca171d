//go:build race

package campaign

// raceEnabled reports whether the test binary runs under the race
// detector, which slows a full campaign roughly tenfold.
const raceEnabled = true
