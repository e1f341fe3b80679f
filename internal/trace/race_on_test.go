//go:build race

package trace

// raceEnabled: under the race detector sync.Pool drops items at random, so
// allocation pins on pooled state do not hold.
const raceEnabled = true
